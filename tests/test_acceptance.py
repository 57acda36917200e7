"""Acceptance gate: nine checks, one test (and one pass/fail line) each.

Run with ``pytest -v tests/test_acceptance.py``; the verbose listing gives
the per-criterion verdicts. Each test also prints a PASS line on success.
"""

import json
import time

import numpy as np
import pytest

from extrack.cli import main
from extrack.correspond import (
    binary_correspondence,
    manifold_overlap,
    normalize,
    sampling_overlap,
)
from extrack.features import (
    feature_correspondence,
    feature_denominators,
    feature_overlap,
    singleton_features,
)
from extrack.field import GridDomain, save_series
from extrack.morse import label_manifolds, persistence_pairs, simplify
from extrack.synth import generate, oracle_merge_tree, random_script, ridge_script
from extrack.trackgraph import (
    _BIN_EDGES,
    ConnectivityPolicy,
    assemble,
    export,
    extremum_layers,
    import_graph,
    threshold_filter,
)
from helpers import edge_set, items, prob, support
from test_features import random_partition

N_RANDOM_SERIES = 100

_cache: dict = {}


def labelled_random_series():
    """100 random 32x32, 5-step Gaussian series with simplified labelings.

    Built once; criterion 1 times the build, later criteria reuse it.
    """
    if "series" not in _cache:
        out = []
        for k in range(N_RANDOM_SERIES):
            rng = np.random.default_rng(1000 + k)
            series = generate(random_script(rng, dims=(32, 32), n_steps=5))
            labs = [
                simplify(label_manifolds(s, series.domain, "minimum"), s, 0.5)
                for s in series.steps
            ]
            out.append((series, labs))
        _cache["series"] = out
    return _cache["series"]


def ridge_labelings():
    if "ridge" not in _cache:
        series = generate(ridge_script())
        labs = [
            simplify(label_manifolds(s, series.domain, "minimum"), s, 0.5)
            for s in series.steps
        ]
        _cache["ridge"] = (series, labs)
    return _cache["ridge"]


def test_criterion_1_rows_sum_to_one_within_1e12():
    t0 = time.perf_counter()
    worst = 0.0
    n_matrices = 0
    for series, labs in labelled_random_series():
        dom = series.domain
        for a, b in zip(labs, labs[1:]):
            fwd, bwd = manifold_overlap(a, b)
            mats = [
                normalize(fwd),
                normalize(bwd),
                normalize(sampling_overlap(a, b, "euclidean", 2.0, "forward")),
                binary_correspondence(a, b, "forward"),
            ]
            for c in mats:
                sums = np.zeros(c.rows)
                np.add.at(sums, c.i, c.probs)
                worst = max(worst, float(np.abs(sums - 1.0).max()))
            n_matrices += len(mats)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"row sum off by {worst}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"PASS 1: {n_matrices} correspondence matrices row-stochastic "
          f"(worst deviation {worst:.2e}) in {elapsed:.2f}s")


def test_criterion_2_backward_overlap_is_exact_transpose():
    checked = 0
    for series, labs in labelled_random_series() + [ridge_labelings()]:
        for a, b in zip(labs, labs[1:]):
            fwd, bwd = manifold_overlap(a, b)
            assert np.array_equal(fwd.to_dense().T, bwd.to_dense())
            assert fwd.counts.dtype == np.int64 and bwd.counts.dtype == np.int64
            checked += 1
    print(f"PASS 2: forward/backward manifold overlap transpose-identical "
          f"on {checked} step pairs (integer equality)")


def test_criterion_3_binary_equals_zero_distance_sampling():
    for series, labs in labelled_random_series():
        dom = series.domain
        for a, b in zip(labs, labs[1:]):
            c_bin = binary_correspondence(a, b, "forward")
            for mode in ("euclidean", "combinatorial"):
                c_zero = normalize(sampling_overlap(a, b, mode, 0.0, "forward"))
                assert support(c_bin) == support(c_zero)
                for i, j, p in items(c_bin):
                    assert prob(c_zero, i, j) == p == 1.0
    print(f"PASS 3: binary correspondence equals normalized d=0 sampling "
          f"entry-for-entry on {N_RANDOM_SERIES} random series (both modes)")


def test_criterion_4_ridge_scenario():
    t0 = time.perf_counter()
    series, labs = ridge_labelings()
    dom = series.domain
    lab0, lab1 = labs

    # layout regression: A stays put, B jumps across the old ridge line
    assert [dom.coords_of(e.vertex) for e in lab0.extrema] == [(20, 12), (20, 28)]
    assert [dom.coords_of(e.vertex) for e in lab1.extrema] == [(20, 12), (20, 22)]
    assert lab0.sizes.tolist() == [1043, 557]
    assert lab1.sizes.tolist() == [1012, 588]
    A0, B0, A1, B1 = 0, 1, 0, 1

    # (a) the one-to-one baseline loses B: B1 sits in A0's old basin
    layers = extremum_layers(labs)
    bin_f = binary_correspondence(lab0, lab1, "forward")
    bin_b = binary_correspondence(lab1, lab0, "backward")
    assert prob(bin_b, B1, A0) == 1.0 and prob(bin_b, B1, B0) == 0.0
    g_bin = threshold_filter(
        assemble(layers, [bin_f], [bin_b], ConnectivityPolicy()), 0.0, "any"
    )
    assert edge_set(g_bin) == {(0, A0, A1)}, "binary graph must miss the B edge"
    assert len({n.track for n in g_bin.nodes}) == 3

    # (b) Euclidean sampling sees both candidates, A0 more probable
    for d, (to_a, to_b) in ((1.0, (4 / 5, 1 / 5)), (2.0, (9 / 13, 4 / 13))):
        c_bwd = normalize(sampling_overlap(lab1, lab0, "euclidean", d, "backward"))
        assert prob(c_bwd, B1, A0) == to_a
        assert prob(c_bwd, B1, B0) == to_b
        assert prob(c_bwd, B1, A0) > prob(c_bwd, B1, B0) > 0.0

    # (c) manifold overlap favors B0 instead
    fwd, bwd = manifold_overlap(lab0, lab1)
    assert fwd.to_dense().tolist() == [[997, 46], [15, 542]]
    c_bwd = normalize(bwd)
    assert prob(c_bwd, B1, B0) == 542 / 588
    assert prob(c_bwd, B1, A0) == 46 / 588
    assert prob(c_bwd, B1, B0) > prob(c_bwd, B1, A0) > 0.0

    # and its default graph carries both tracks through
    g = threshold_filter(
        assemble(layers, [normalize(fwd)], [c_bwd], ConnectivityPolicy()), 0.25, "any"
    )
    assert edge_set(g) == {(0, A0, A1), (0, B0, B1)}
    assert len({n.track for n in g.nodes}) == 2

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS 4: ridge scenario orderings and regression values hold "
          f"in {elapsed:.3f}s (binary drops B, sampling prefers A0, manifold prefers B0)")


def test_criterion_5_binary_support_subset_of_probabilistic():
    checked = 0
    for series, labs in labelled_random_series() + [ridge_labelings()]:
        dom = series.domain
        for a, b in zip(labs, labs[1:]):
            for src, dst, direction in ((a, b, "forward"), (b, a, "backward")):
                base = support(binary_correspondence(src, dst, direction))
                fwd, bwd = manifold_overlap(src, dst)
                assert base <= support(fwd)
                for mode in ("euclidean", "combinatorial"):
                    for d in (0.0, 1.0, 2.0):
                        o = sampling_overlap(src, dst, mode, d, direction)
                        assert base <= support(o)
                        checked += 1
    print(f"PASS 5: binary support contained in probabilistic support "
          f"({checked} matrix checks: both modes, d in {{0,1,2}}, manifold)")


def test_criterion_6_persistence_oracle_and_monotone_survivors():
    rng = np.random.default_rng(77)
    dom = GridDomain((6, 6))
    n = dom.vertex_count
    for trial in range(10_000):
        w = rng.permutation(n).astype(np.float64)
        got = persistence_pairs(w, dom, "minimum")
        want = oracle_merge_tree(w, dom, "minimum")
        assert got == want, f"trial {trial} differs"
        if trial % 50 == 0:
            lab = label_manifolds(w, dom, "minimum")
            survivors = None
            for pct in (100.0, 50.0, 5.0, 0.5, 0.0):
                cur = {e.vertex for e in simplify(lab, w, pct).extrema}
                assert survivors is None or survivors <= cur
                survivors = cur
    print("PASS 6: persistence pairs match the merge-tree oracle on 10000 "
          "random 6x6 grids; survivor sets monotone across {0,0.5,5,50,100}%")


def test_criterion_7_feature_lift_exactness():
    rng = np.random.default_rng(78)
    series_subset = labelled_random_series()[:10]
    for series, labs in series_subset:
        a, b = labs[0], labs[1]
        fwd, bwd = manifold_overlap(a, b)

        # singleton features reproduce the extremum-level matrices exactly
        s_t, s_n = singleton_features(0, a.n_extrema), singleton_features(1, b.n_extrema)
        for o in (fwd, bwd):
            ft, fn = (s_t, s_n) if o.direction == "forward" else (s_n, s_t)
            lifted = feature_overlap(ft, fn, o)
            assert np.array_equal(lifted.to_dense(), o.to_dense())
            assert np.array_equal(
                feature_correspondence(lifted).to_dense(), normalize(o).to_dense()
            )

        # random partitions against a brute-force vertex scan
        ft = random_partition(rng, a.n_extrema, coverage=0.8)
        fn = random_partition(rng, b.n_extrema, coverage=0.8)
        lifted = feature_overlap(ft, fn, fwd)
        mem_t = ft.membership(a.n_extrema)[a.label]
        mem_n = fn.membership(b.n_extrema)[b.label]
        expect = np.zeros((ft.n_features, fn.n_features), dtype=np.int64)
        for i, j in zip(mem_t, mem_n):
            if i >= 0 and j >= 0:
                expect[i, j] += 1
        assert np.array_equal(lifted.to_dense(), expect)

        # denominators equal direct vertex recounts of the unioned manifolds
        denom = feature_denominators(ft, fwd)
        recount = [int(np.sum(mem_t == k)) for k in range(ft.n_features)]
        assert denom.tolist() == recount

        lifted_c = feature_correspondence(lifted)
        expect_probs = expect / np.asarray(recount)[:, None]
        assert np.abs(lifted_c.to_dense() - expect_probs).max() <= 1e-12
    print("PASS 7: feature lift exact for singletons; random partitions match "
          "brute-force label scans (counts exact, probabilities within 1e-12)")


def test_criterion_8_pipeline_speed_and_determinism(tmp_path):
    rng = np.random.default_rng(79)
    series = generate(random_script(rng, dims=(64, 64), n_steps=50, n_blobs=8))
    src = tmp_path / "series.xtrk"
    save_series(series, src)

    def run_to(name, jobs):
        out = tmp_path / name
        code = main(["run", "--input", str(src), "--out", str(out), "--jobs", str(jobs)])
        assert code == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    t0 = time.perf_counter()
    first = run_to("a", 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"64x64, 50-step run took {elapsed:.2f}s"
    assert first == run_to("b", 1), "rerun differs"
    assert first == run_to("c", 8), "jobs=8 differs"
    print(f"PASS 8: 64x64, 50-step pipeline ran in {elapsed:.2f}s; outputs "
          f"byte-identical across reruns and jobs 1 vs 8 ({len(first)} files)")


def test_criterion_9_export_round_trip_and_dot_bins():
    series, labs = ridge_labelings()
    fwd, bwd = manifold_overlap(labs[0], labs[1])
    g = assemble(extremum_layers(labs), [normalize(fwd)], [normalize(bwd)],
                 ConnectivityPolicy(), strategy="manifold-overlap")

    text = export(g, "json")
    assert export(import_graph(text), "json") == text

    dot = export(g, "dot")
    edge_lines = [ln for ln in dot.splitlines() if "->" in ln]
    assert len(edge_lines) == len(g.edges)
    for e, ln in zip(g.edges, edge_lines):  # both in (t, i, j) order
        bins = [k for k, (lo, hi) in enumerate(
            zip((0.0,) + _BIN_EDGES, _BIN_EDGES + (1.0,))) if lo < e.strength <= hi]
        assert len(bins) == 1, "edge must land in exactly one bin"
        assert ln.split("penwidth=")[1].split(",")[0] == ("1.0", "2.0", "3.5", "5.0")[bins[0]]
    print(f"PASS 9: JSON graph export round-trips byte-identically; "
          f"{len(edge_lines)} DOT edges each fall in exactly one strength bin")

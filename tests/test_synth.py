import math

import numpy as np
import pytest

from extrack.field import GridDomain
from extrack.morse import label_manifolds, simplify
from extrack.synth import (
    GaussianBlob,
    GaussianScript,
    generate,
    load_script,
    oracle_merge_tree,
    oracle_overlap,
    random_script,
    ridge_script,
    save_script,
)
from helpers import fake_labeling


class TestScripts:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            GaussianBlob(((0.0, 0.0),), amplitude=-1.0, sigma=0.0)

    def test_path_length_must_match_steps(self):
        blob = GaussianBlob(((0.0, 0.0),), -1.0, 1.0)
        with pytest.raises(ValueError):
            GaussianScript(GridDomain((4, 4)), 2, 0.0, (blob,))

    def test_json_round_trip(self, tmp_path):
        script = ridge_script()
        p = tmp_path / "script.json"
        save_script(script, p)
        back = load_script(p)
        assert back == script

    def test_generate_is_deterministic(self):
        script = random_script(np.random.default_rng(3), dims=(10, 12), n_steps=3)
        a = generate(script)
        b = generate(script)
        for x, y in zip(a.steps, b.steps):
            assert np.array_equal(x, y)


class TestGenerate:
    def test_single_well_minimum_at_center(self):
        dom = GridDomain((9, 9))
        blob = GaussianBlob(((4.0, 6.0), (4.0, 6.0)), amplitude=-5.0, sigma=2.0)
        series = generate(GaussianScript(dom, 2, 0.0, (blob,)))
        for step in series.steps:
            lab = label_manifolds(step, dom, "minimum")
            deepest = min(lab.extrema, key=lambda e: e.value)
            assert dom.coords_of(deepest.vertex) == (4, 6)

    def test_two_far_wells_split_near_midline(self):
        dom = GridDomain((11, 21))
        a = GaussianBlob(((5.0, 3.0),), -5.0, 1.5)
        b = GaussianBlob(((5.0, 17.0),), -5.0, 1.5)
        series = generate(GaussianScript(dom, 1, 0.0, (a, b)))
        lab = simplify(label_manifolds(series.steps[0], dom, "minimum"),
                       series.steps[0], 0.5)
        assert lab.n_extrema == 2
        assert sorted(dom.coords_of(e.vertex) for e in lab.extrema) == [(5, 3), (5, 17)]
        # within 2 columns of a center, labels follow the nearest center
        for v in range(dom.vertex_count):
            _, c = dom.coords_of(v)
            if abs(c - 3) <= 2:
                assert lab.label[v] == lab.label[dom.vertex_at((5, 3))]
            elif abs(c - 17) <= 2:
                assert lab.label[v] == lab.label[dom.vertex_at((5, 17))]

    def test_steps_equal_the_two_step_exponent(self):
        # generate divides each squared distance by -(2 sigma^2) in place;
        # negating first and dividing by 2 sigma^2 gives the same bits, as
        # IEEE division takes the sign exactly
        rng = np.random.default_rng(14)
        for dims, periodic in [((13, 9), (True, False)), ((7, 6, 5), (False, True, True)),
                               ((11, 10), (True, True))]:
            script = random_script(rng, dims, 3, n_blobs=6, periodic=periodic,
                                   sign=float(rng.choice([-1.0, 1.0])))
            dom = script.domain
            coords = np.indices(dom.dims).reshape(dom.rank, -1)
            for t, step in enumerate(generate(script).steps):
                want = np.full(dom.vertex_count, script.base)
                for blob in script.blobs:
                    d2 = 0.0
                    for a, c in enumerate(blob.path[t]):
                        delta = np.abs(coords[a] * dom.spacing[a] - c)
                        if periodic[a]:
                            period = dom.dims[a] * dom.spacing[a]
                            delta = np.minimum(delta % period, period - delta % period)
                        d2 = d2 + delta**2
                    want += blob.amplitude * np.exp(np.negative(d2) / (2.0 * blob.sigma**2))
                assert step.tobytes() == want.tobytes()

    def test_periodic_wrap_pulls_across_seam(self):
        dom = GridDomain((4, 16), periodic=(False, True))
        blob = GaussianBlob(((1.0, 0.0),), -5.0, 2.0)
        series = generate(GaussianScript(dom, 1, 0.0, (blob,)))
        step = series.steps[0].reshape(4, 16)
        # the column one step across the seam equals the one next to it
        assert step[1, 15] == pytest.approx(step[1, 1])


class TestRidgeScenario:
    def test_two_steps_two_minima_each(self):
        series = generate(ridge_script())
        dom = series.domain
        labs = [simplify(label_manifolds(s, dom, "minimum"), s, 0.5) for s in series.steps]
        assert [lab.n_extrema for lab in labs] == [2, 2]
        assert [dom.coords_of(e.vertex) for e in labs[0].extrema] == [(20, 12), (20, 28)]
        assert [dom.coords_of(e.vertex) for e in labs[1].extrema] == [(20, 12), (20, 22)]

    def test_shallow_minimum_crosses_the_old_ridge(self):
        series = generate(ridge_script())
        dom = series.domain
        labs = [simplify(label_manifolds(s, dom, "minimum"), s, 0.5) for s in series.steps]
        b1 = labs[1].extrema[1]
        # at t0 the vertex that will host B1 still drains to A's basin
        assert labs[0].label[b1.vertex] == 0
        # while B0's old vertex keeps draining to B's basin at t1
        assert labs[1].label[labs[0].extrema[1].vertex] == 1


class TestOracles:
    def test_merge_tree_monotone_ramp(self):
        dom = GridDomain((2, 6))
        pairs = oracle_merge_tree(np.arange(12, dtype=float), dom, "minimum")
        assert pairs == [(0, None, math.inf)]

    def test_merge_tree_double_well_symmetry(self):
        dom = GridDomain((2, 5))
        vals = np.array([0, 9, 1, 9, 0] * 2, dtype=float)
        finite = [p for _, _, p in oracle_merge_tree(vals, dom, "minimum") if p != math.inf]
        assert sorted(finite) == [8.0, 9.0]

    def test_merge_tree_bit_identical_across_runs(self):
        rng = np.random.default_rng(1)
        dom = GridDomain((6, 6))
        vals = rng.standard_normal(36)
        assert oracle_merge_tree(vals, dom, "maximum") == oracle_merge_tree(vals, dom, "maximum")

    def test_overlap_identical_labelings(self):
        dom = GridDomain((4, 4))
        lab = fake_labeling(dom, [0] * 6 + [1] * 10)
        o = oracle_overlap(lab, lab)
        assert o.tolist() == [[6, 0], [0, 10]]

    def test_overlap_permuted_labels(self):
        dom = GridDomain((4, 4))
        lab_a = fake_labeling(dom, [0] * 6 + [1] * 10)
        lab_b = fake_labeling(dom, [1] * 6 + [0] * 10)
        o = oracle_overlap(lab_a, lab_b)
        assert o.tolist() == [[0, 6], [10, 0]]

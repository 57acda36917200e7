import gc
import json
import logging
import resource
import shutil
import signal
import subprocess
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from extrack import cli, correspond, features, field, morse, synth, trackgraph
from extrack.cli import main
from extrack.field import GridDomain, ScalarFieldSeries, load_labels, load_series, save_series
from extrack.synth import GaussianBlob, GaussianScript, generate, random_script, save_script
from helpers import (load_matrix, oracle_compare_report, oracle_matrix_json, random_series,
                     run_python)


@pytest.fixture(scope="module")
def ridge_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ridge.xtrk"
    assert main(["synth", "--preset", "ridge", "--out", str(path)]) == 0
    return path


# a well-formed one-row matrix document
MATRIX = {"t": 0, "kind": "overlap", "direction": "forward", "strategy": "binary",
          "rows": 1, "cols": 2, "denominators": [2], "entries": [[0, 1, 1]]}


def read_tree(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


class TestSynth:
    def test_preset_is_loadable(self, ridge_file):
        series = load_series(ridge_file, "raw-f64")
        assert series.n_steps == 2
        assert series.domain.dims == (40, 40)
        assert series.steps[0].dtype == np.float64

    def test_f32_output(self, tmp_path):
        out = tmp_path / "r32.xtrk"
        assert main(["synth", "--preset", "ridge", "--out", str(out), "--dtype", "f32"]) == 0
        assert load_series(out, "raw-f32").steps[0].dtype == np.float32

    def test_script_round_trip_matches_preset(self, tmp_path, ridge_file):
        script = tmp_path / "script.json"
        direct = tmp_path / "direct.xtrk"
        assert main(["synth", "--preset", "ridge", "--out", str(direct),
                     "--save-script", str(script)]) == 0
        from_script = tmp_path / "scripted.xtrk"
        assert main(["synth", "--script", str(script), "--out", str(from_script)]) == 0
        assert from_script.read_bytes() == direct.read_bytes() == ridge_file.read_bytes()

    def test_needs_exactly_one_source(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x.xtrk")]) == 2
        assert main(["synth", "--preset", "ridge", "--script", "s.json",
                     "--out", str(tmp_path / "x.xtrk")]) == 2

    def test_missing_script_file(self, tmp_path):
        assert main(["synth", "--script", str(tmp_path / "gone.json"),
                     "--out", str(tmp_path / "x.xtrk")]) == 3

    def test_unwritable_out_is_a_data_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.xtrk"
        assert main(["synth", "--preset", "ridge", "--out", str(out)]) == 3
        assert f"{out}: " in capsys.readouterr().err

    @pytest.mark.parametrize("blobs, base, dtype, message", [
        ([{"amplitude": float("nan")}], 0.0, "f64",
         "bad script: amplitude must be finite, got nan"),
        ([{"path": [[3.0, float("inf")]]}], 0.0, "f64",
         "bad script: path coordinates must be finite, got inf"),
        ([{}], float("nan"), "f64", "bad script: base must be finite, got nan"),
        ([{"amplitude": 1e39}], 0.0, "f32",
         "stage 'synth' failed: step 0 contains a non-finite"),
        ([{"amplitude": 1e308}] * 2, 0.0, "f64",
         "stage 'synth' failed: step 0 contains a non-finite"),
    ], ids=["nan-amplitude", "inf-path", "nan-base", "f32-overflow", "f64-overflow"])
    def test_non_finite_script_is_a_data_error(self, tmp_path, capsys, blobs, base, dtype,
                                               message):
        # these used to end in a traceback and exit 1
        blobs = [{"amplitude": 1.0, "sigma": 2.0, "path": [[3.0, 3.0]], **b} for b in blobs]
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"dims": [8, 8], "n_steps": 1, "base": base,
                                      "blobs": blobs}))
        out = tmp_path / "x.xtrk"
        assert main(["synth", "--script", str(script), "--out", str(out),
                     "--dtype", dtype]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("dims", [8.7, 8], "'dims' must be integers"),
        ("n_steps", 1.9, "'n_steps' must be integers"),
        ("n_steps", True, "'n_steps' must be integers"),
        ("spacing", [1.0, True], "'spacing' must be numbers"),
        ("base", "0", "'base' must be numbers"),
        ("periodic", ["no", "no"], "'periodic' must be booleans"),
        ("amplitude", True, "'amplitude' must be numbers"),
        ("sigma", "2", "'sigma' must be numbers"),
        ("sigma", float("inf"), "sigma must be positive and finite, got inf"),
        ("path", [[3.0, "3"]], "'path' must be numbers"),
        ("path", [[3.0, 3.0, 1.0]], "blob path points must have 2 coordinates"),
    ], ids=["fractional-dims", "fractional-steps", "bool-steps", "bool-spacing", "str-base",
            "str-periodic", "bool-amplitude", "str-sigma", "inf-sigma", "str-path",
            "3d-path"])
    def test_script_numbers_are_read_strictly(self, tmp_path, capsys, key, value, message):
        # each used to be coerced and exit 0: 8.7 read as 8, 1.9 steps as 1,
        # true as 1.0, "2" as 2.0, "no" as periodic, an infinite sigma as a
        # flat blob and a third path coordinate as nothing
        blob = {"amplitude": 1.0, "sigma": 2.0, "path": [[3.0, 3.0]]}
        doc = {"dims": [8, 8], "n_steps": 1, "blobs": [blob]}
        (blob if key in blob else doc)[key] = value
        script = tmp_path / "script.json"
        script.write_text(json.dumps(doc))
        out = tmp_path / "x.xtrk"
        assert main(["synth", "--script", str(script), "--out", str(out)]) == 3
        assert f"{script}: bad script: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("blobs, dtype", [
        ([{"amplitude": 1e39}], "f32"),
        ([{"amplitude": 1e308}] * 2, "f64"),
        ([{"amplitude": -1e39}], "f32"),
    ], ids=["f32-overflow", "f64-overflow", "f32-negative-overflow"])
    def test_overflow_prints_only_its_error(self, tmp_path, blobs, dtype):
        # numpy's RuntimeWarning and its source line used to come first
        blobs = [{"sigma": 2.0, "path": [[3.0, 3.0]], **b} for b in blobs]
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"dims": [8, 8], "n_steps": 1, "blobs": blobs}))
        out = tmp_path / "x.xtrk"
        r = run_python("-m", "extrack", "synth", "--script", str(script), "--out", str(out),
                       "--dtype", dtype)
        assert r.returncode == 3
        assert r.stderr.startswith("error: stage 'synth' failed: step 0 contains a non-finite")
        assert r.stderr.count("\n") == 1, r.stderr
        assert not out.exists()


class TestRun:
    def test_default_pipeline_artifacts(self, ridge_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--input", str(ridge_file), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "graph.json", "graph.dot",
            "overlap_forward_0000.json", "overlap_backward_0001.json",
            "correspondence_forward_0000.json", "correspondence_backward_0001.json",
        }
        doc = json.loads((out / "graph.json").read_text())
        assert len(doc["nodes"]) == 4
        assert len(doc["edges"]) == 2
        assert len({n["track"] for n in doc["nodes"]}) == 2
        strengths = sorted(e["strength"] for e in doc["edges"])
        assert strengths == pytest.approx([542 / 557, 997 / 1012])

    def test_meta_echo_excludes_execution_knobs(self, ridge_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--input", str(ridge_file), "--out", str(out), "--jobs", "4"])
        cfg = json.loads((out / "graph.json").read_text())["meta"]["config"]
        assert "jobs" not in cfg and "out" not in cfg
        assert cfg["strategy"] == "manifold-overlap"
        assert cfg["p_min"] == 0.25

    def test_binary_misses_the_moved_minimum(self, ridge_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--input", str(ridge_file), "--out", str(out), "--strategy", "binary"])
        doc = json.loads((out / "graph.json").read_text())
        assert len(doc["edges"]) == 1
        assert len({n["track"] for n in doc["nodes"]}) == 3

    def test_sampling_recovers_it(self, ridge_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--input", str(ridge_file), "--out", str(out),
              "--strategy", "sampling-euclidean", "--d", "2"])
        doc = json.loads((out / "graph.json").read_text())
        assert len(doc["edges"]) == 2

    def test_reruns_are_byte_identical(self, ridge_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--input", str(ridge_file), "--out", str(a)])
        main(["run", "--input", str(ridge_file), "--out", str(b)])
        assert read_tree(a) == read_tree(b)

    def test_jobs_do_not_change_output(self, ridge_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--input", str(ridge_file), "--out", str(a), "--jobs", "1"])
        main(["run", "--input", str(ridge_file), "--out", str(b), "--jobs", "8"])
        assert read_tree(a) == read_tree(b)

    @pytest.mark.parametrize("flags", [[], ["--global-range"]], ids=["step-range", "global-range"])
    @pytest.mark.parametrize("case", ["noise", "range-pair"])
    def test_float32_series_runs_as_its_float64_cast(self, tmp_path, case, flags):
        # every range is taken in float64, so a float32 series and its float64
        # cast write the same labels, matrices and graph. In "range-pair" two
        # equal minima are split by a wall at the series maximum: the younger
        # one's persistence is the exact range, 1 - 1e-8, so it survives
        # 100 %, where a range rounded to float32 (1.0) would cancel it
        if case == "noise":
            series = random_series(np.random.default_rng(52), (12, 10), 3, (True, False))
            domain, steps, pct, kept = series.domain, series.steps, "5", None
        else:
            step = np.tile(np.array([1e-8, 0.5, 1.0, 0.5, 1e-8], np.float32), 3)
            domain, steps, pct, kept = GridDomain((3, 5)), (step, step), "100", {0, 1}
        steps = tuple(s.astype(np.float32) for s in steps)
        trees = []
        for name, dtype, fmt in (("f32", np.float32, "raw-f32"), ("f64", np.float64, "raw-f64")):
            path, out = tmp_path / f"{name}.xtrk", tmp_path / name
            save_series(ScalarFieldSeries(domain, tuple(s.astype(dtype) for s in steps)), path)
            assert main(["run", "--input", str(path), "--format", fmt, "--out", str(out),
                         "--persistence-pct", pct, "--dump-labels", *flags]) == 0
            tree = read_tree(out)
            del tree["graph.json"]  # it echoes the input's path and format
            trees.append(tree)
        assert trees[0] == trees[1]
        assert "graph.dot" in trees[0] and "labels_0001.xtrk" in trees[0]
        assert sum("overlap_" in n for n in trees[0]) == 2 * (len(steps) - 1)
        if kept is not None:
            assert set(load_labels(tmp_path / "f32" / "labels_0000.xtrk")[0].tolist()) == kept

    def test_dump_labels(self, ridge_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--input", str(ridge_file), "--out", str(out), "--dump-labels"])
        for t in (0, 1):
            label, dom = load_labels(out / f"labels_{t:04d}.xtrk")
            assert dom.dims == (40, 40)
            assert label.shape == (1600,)
            assert set(np.unique(label)) == {0, 1}

    def test_maximum_kind(self, ridge_file, tmp_path):
        # negate the field: its maxima are the original minima
        series = load_series(ridge_file, "raw-f64")
        neg = type(series)(series.domain, tuple(-s for s in series.steps))
        neg_path = tmp_path / "neg.xtrk"
        save_series(neg, neg_path)
        out = tmp_path / "out"
        assert main(["run", "--input", str(neg_path), "--out", str(out),
                     "--kind", "max"]) == 0
        doc = json.loads((out / "graph.json").read_text())
        assert len(doc["nodes"]) == 4 and len(doc["edges"]) == 2
        ref = tmp_path / "ref"
        main(["run", "--input", str(ridge_file), "--out", str(ref)])
        ref_doc = json.loads((ref / "graph.json").read_text())
        assert [n["vertex"] for n in doc["nodes"]] == [n["vertex"] for n in ref_doc["nodes"]]

    def test_single_step_series_has_no_edges(self, tmp_path):
        series = random_series(np.random.default_rng(50), (8, 8), 1)
        p = tmp_path / "one.xtrk"
        save_series(series, p)
        out = tmp_path / "out"
        assert main(["run", "--input", str(p), "--out", str(out)]) == 0
        doc = json.loads((out / "graph.json").read_text())
        assert doc["edges"] == []
        assert len(doc["nodes"]) >= 1

    def test_csv_inputs_stack_into_steps(self, tmp_path):
        rng = np.random.default_rng(51)
        steps = [rng.standard_normal((6, 5)) for _ in range(2)]
        paths = []
        for t, s in enumerate(steps):
            p = tmp_path / f"step{t}.csv"
            np.savetxt(p, s, delimiter=",")
            paths.append(str(p))
        out = tmp_path / "out"
        assert main(["run", "--format", "csv", "--input", *paths, "--out", str(out)]) == 0
        assert (out / "graph.json").exists()

    def test_semantic_flags_reach_the_graph(self, ridge_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--input", str(ridge_file), "--out", str(out),
              "--max-jump", "3.0", "--value-max", "-2.0"])
        doc = json.loads((out / "graph.json").read_text())
        sem = doc["meta"]["thresholds"]["semantic"]
        assert sem == {"max_jump": 3.0, "value_max": -2.0}
        # the shallow moved minimum (about -4 deep) survives, -1-ish saddles would not
        assert all(n["value"] <= -2.0 for n in doc["nodes"])


class TestFeaturePipeline:
    def test_feature_side_file(self, ridge_file, tmp_path):
        fpath = tmp_path / "features.json"
        fpath.write_text(json.dumps([
            {"t": 0, "features": [{"id": 0, "label": "both", "extrema": [0, 1]}]},
            {"t": 1, "features": [{"id": 0, "extrema": [0]}, {"id": 1, "extrema": [1]}]},
        ]))
        out = tmp_path / "out"
        assert main(["run", "--input", str(ridge_file), "--out", str(out),
                     "--features", str(fpath)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "feature_correspondence_forward_0000.json" in names
        doc = json.loads((out / "feature_correspondence_forward_0000.json").read_text())
        assert doc["rows"] == 1 and doc["cols"] == 2
        assert doc["denominators"] == [1600]
        total = sum(c for _, _, c in doc["entries"])
        assert total == 1600
        graph = json.loads((out / "graph.json").read_text())
        assert {n["kind"] for n in graph["nodes"]} == {"feature"}
        assert len(graph["nodes"]) == 3

    def test_every_written_matrix_reloads_byte_identically(self, ridge_file, tmp_path):
        # step 1 lists no features (singletons); extremum 1 of step 0 is in
        # no feature, so feature rows of step 1 fall short of their mass
        fpath = tmp_path / "features.json"
        fpath.write_text(json.dumps([{"t": 0, "features": [{"id": 0, "extrema": [0]}]}]))
        out = tmp_path / "out"
        assert main(["run", "--input", str(ridge_file), "--out", str(out),
                     "--features", str(fpath)]) == 0
        paths = sorted(p for p in out.glob("*.json")
                       if "overlap_" in p.name or "correspondence_" in p.name)
        assert len(paths) == 8
        loaded = []
        for p in paths:
            m, t = load_matrix(p)
            again = tmp_path / "again.json"
            correspond.save_matrix(m, t, again)
            assert again.read_bytes() == p.read_bytes(), p.name
            loaded.append(m)
        assert sum((m.row_sums() < m.row_denominators).any() for m in loaded) == 2


    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_no_extremum_object_is_built(self, ridge_file, tmp_path, monkeypatch, command):
        # feature nodes read their representative's vertex and value from
        # the extremum columns
        def no_objects(*args):
            raise AssertionError("an Extremum object was built")

        monkeypatch.setattr(morse, "Extremum", no_objects)
        fpath = tmp_path / "features.json"
        fpath.write_text(json.dumps([{"t": 1, "features": [{"id": 0, "extrema": [1, 0]}]}]))
        assert main([command, "--input", str(ridge_file), "--out", str(tmp_path / "out"),
                     "--features", str(fpath)]) == 0

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("steps, message", [
        ((0, 0), "step 0 is listed twice"),
        ((7,), "step 7 is outside the series (steps 0..1)"),
        ((-1,), "step -1 is outside the series (steps 0..1)"),
    ], ids=["twice", "past-the-end", "negative"])
    def test_bad_feature_file_steps_are_data_errors(self, ridge_file, tmp_path, capsys,
                                                     command, steps, message):
        # before, the last entry of a repeated step won and a step outside
        # the series was dropped, both with exit 0
        fpath = tmp_path / "features.json"
        fpath.write_text(json.dumps([{"t": t, "features": [{"id": 0, "extrema": [k]}]}
                                     for k, t in enumerate(steps)]))
        assert main([command, "--input", str(ridge_file), "--out", str(tmp_path / "out"),
                     "--features", str(fpath)]) == 3
        assert f"{fpath}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("n_steps", [1, 2])
    @pytest.mark.parametrize("bad", [7, -1])
    def test_extremum_ids_are_checked_at_load(self, ridge_file, tmp_path, capsys, n_steps,
                                              bad):
        # 7 used to fail in graph assembly with numpy's index error, and -1
        # to exit 0, showing the step's last extremum as the feature's node
        series = load_series(ridge_file, "raw-f64")
        path = tmp_path / "series.xtrk"
        save_series(ScalarFieldSeries(series.domain, series.steps[:n_steps]), path)
        fpath = tmp_path / "features.json"
        fpath.write_text(json.dumps({"t": 0, "features": [{"id": 0, "extrema": [0, bad]}]}))
        assert main(["run", "--input", str(path), "--out", str(tmp_path / "out"),
                     "--features", str(fpath)]) == 3
        assert (f"error: {fpath}: step 0: extremum id {bad} out of range (step has 2)"
                in capsys.readouterr().err)

    def test_non_integral_feature_file_is_a_data_error(self, ridge_file, tmp_path, capsys):
        # it used to read as step 0, feature 0, extrema [0, 1] and exit 0
        fpath = tmp_path / "features.json"
        fpath.write_text('{"t": 0.9, "features": [{"id": 0.4, "extrema": [0.6, true]}]}')
        argv = ["run", "--input", str(ridge_file), "--out", str(tmp_path / "out"),
                "--features", str(fpath)]
        assert main(argv) == 3
        assert "bad feature file: feature 'id' must be integers" in capsys.readouterr().err
        r = run_python("-m", "extrack", *argv, optimize=True)
        assert r.returncode == 3, r.stderr
        assert "feature 'id' must be integers" in r.stderr


class TestMatrixPairs:
    @pytest.mark.parametrize("strategy", ["manifold-overlap", "sampling-euclidean"])
    def test_twins_share_their_body(self, ridge_file, tmp_path, strategy):
        # each correspondence file is its overlap file with another "kind";
        # extremum 1 of step 0 is in no feature, so one lift is partial
        fpath = tmp_path / "features.json"
        fpath.write_text(json.dumps([{"t": 0, "features": [{"id": 0, "extrema": [0]}]}]))
        out = tmp_path / "out"
        assert main(["run", "--input", str(ridge_file), "--out", str(out), "--strategy", strategy,
                     "--features", str(fpath)]) == 0
        pairs = sorted(out.glob("*overlap_*.json"))
        assert len(pairs) == 4
        for p in pairs:
            twin = p.with_name(p.name.replace("overlap_", "correspondence_"))
            for path in (p, twin):
                m, t = load_matrix(path)
                assert path.read_text() == oracle_matrix_json(m, t), path.name
            a, b = p.read_text().splitlines(), twin.read_text().splitlines()
            k = a.index('  "kind": "overlap",')
            assert len(a) == len(b) and b[k] == '  "kind": "correspondence",'
            assert [i for i, (x, y) in enumerate(zip(a, b)) if x != y] == [k]

    @pytest.mark.parametrize("strategy", ["manifold-overlap", "sampling-euclidean", "binary"])
    def test_no_matrix_text_outlives_the_run(self, tmp_path, strategy):
        # the writers keep no formatted block once it is written, so of what
        # extrack.correspond allocates during a run nothing is still held
        # after it; a first run makes numpy's first-use caches
        path = tmp_path / "noise.xtrk"
        save_series(random_series(np.random.default_rng(70), (96, 96), 2), path)
        fpath = tmp_path / "features.json"
        fpath.write_text(json.dumps([{"t": 0, "features": [{"id": 0, "extrema": [0, 1]}]}]))
        argv = ["run", "--input", str(path), "--out", str(tmp_path / "out"), "--strategy",
                strategy, "--d", "3", "--persistence-pct", "0", "--features", str(fpath)]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            gc.collect()
            held = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, correspond.__file__)])
        finally:
            tracemalloc.stop()
        largest = max(p.stat().st_size for p in (tmp_path / "out").glob("*correspondence_*"))
        assert largest > 50_000
        assert sum(s.size for s in held.statistics("filename")) < 4096

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fields_are_released_after_labeling(self, tmp_path, monkeypatch, jobs):
        # each step's values are dropped once that step is labeled, and
        # correspondence, assembly and export read the domain, not the fields
        steps = []
        real_load, real_label = field.load_series, cli.label_manifolds
        real_overlap = correspond.manifold_overlap

        def load_series(*args):
            series = real_load(*args)
            steps.extend(weakref.ref(s) for s in series.steps)
            return series

        def label_manifolds(step, *args):
            t = next(t for t, ref in enumerate(steps) if ref() is step)
            gc.collect()
            # a step labeled before t is still held only while its labeling
            # runs, on one of the other jobs - 1 threads
            held = sum(ref() is not None for ref in steps[:t])
            assert held <= jobs - 1, f"{held} labeled steps outlived their labeling at t={t}"
            return real_label(step, *args)

        def manifold_overlap(*args):
            gc.collect()
            assert steps and all(ref() is None for ref in steps), "a field outlived labeling"
            return real_overlap(*args)

        monkeypatch.setattr(cli.field, "load_series", load_series)
        monkeypatch.setattr(cli, "label_manifolds", label_manifolds)
        monkeypatch.setattr(cli.correspond, "manifold_overlap", manifold_overlap)
        path = noisy_file(tmp_path / "noisy.xtrk")
        assert main(["run", "--input", str(path), "--out", str(tmp_path / "out"),
                     "--jobs", str(jobs)]) == 0
        assert len(steps) == 4


class TestConfigFile:
    def test_flags_beat_config(self, ridge_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# pipeline settings\n"
            f"input = {ridge_file}\n"
            "strategy = binary\n"
            "persistence-pct = 50\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--persistence-pct", "0.5"]) == 0
        echo = json.loads((out / "graph.json").read_text())["meta"]["config"]
        assert echo["strategy"] == "binary"
        assert echo["persistence_pct"] == 0.5

    def test_every_key_form_reads_as_its_flag(self, ridge_file, tmp_path):
        # a list, two switches, a point, an int, a float and a choice
        flags = ["--input", str(ridge_file), "--global-range", "--dump-labels",
                 "--box-min", "0,0", "--jobs", "2", "--max-jump", "8",
                 "--strategy", "sampling-euclidean"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {ridge_file}\nglobal-range = yes\ndump-labels = on\n"
                       "box-min = 0,0\njobs = 2\nmax-jump = 8\nstrategy = sampling-euclidean\n")
        parser = cli._build_parser()
        assert cli._config_from_args(parser.parse_args(["run", "--config", str(cfg)])) \
            == cli._config_from_args(parser.parse_args(["run", *flags]))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", *flags, "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        assert read_tree(a) == read_tree(b)
        assert "labels_0001.xtrk" in read_tree(a)

    def test_unknown_key_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("strategy = binary\nwidgets = 7\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "bad.cfg:2" in capsys.readouterr().err

    def test_bad_value_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dump-labels = maybe\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "bad.cfg:1" in capsys.readouterr().err

    @pytest.mark.parametrize("key", sorted(cli.CHOICES))
    def test_bad_choice_reports_line(self, tmp_path, capsys, key):
        # these used to be refused only later, without the file and line
        cfg = tmp_path / "bad.cfg"
        flag = key.replace("_", "-")
        cfg.write_text(f"input = x\n{flag} = nonsense\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert f"bad.cfg:2: invalid {flag} 'nonsense' (choose from " in capsys.readouterr().err
        # the file accepts exactly what the flag accepts
        actions = {a.dest: a for a in cli._build_parser()._subparsers._group_actions[0]
                   .choices["run"]._actions}
        assert tuple(actions[key].choices) == cli.CHOICES[key]
        for value in cli.CHOICES[key]:
            cfg.write_text(f"{flag} = {value}\n")
            assert cli._read_config_file(str(cfg)) == {key: value}

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 2

    def test_malformed_point_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--input", str(tmp_path / "x"), "--box-min", "a,b"])
        assert exc.value.code == 2
        assert "--box-min" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--box-min", "--box-max"])
    def test_malformed_point_flag_gives_the_reason(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--input", str(tmp_path / "x"), flag, "a,b"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: not a comma-separated point: 'a,b'" in err
        assert "_parse_point" not in err and "_point_flag" not in err

    def test_malformed_point_in_config_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("strategy = binary\nbox-max = 1,b\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "bad.cfg:2: not a comma-separated point: '1,b'" in capsys.readouterr().err


class TestExitCodes:
    def test_no_input_is_a_config_error(self):
        assert main(["run"]) == 2

    def test_invalid_persistence_pct(self, ridge_file):
        assert main(["run", "--input", str(ridge_file), "--persistence-pct", "150"]) == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--value-min", "nan", "value-min must be finite, got nan"),
        ("--value-max", "-inf", "value-max must be finite, got -inf"),
        ("--max-jump", "nan", "max-jump must be finite, got nan"),
        ("--max-jump", "inf", "max-jump must be finite, got inf"),
        ("--max-jump", "-1", "max-jump must not be negative, got -1.0"),
        ("--box-min", "nan,0", "box-min must be finite, got (nan, 0.0)"),
        ("--box-max", "0,inf", "box-max must be finite, got (0.0, inf)"),
    ])
    def test_non_finite_semantic_setting_is_a_config_error(self, ridge_file, tmp_path, capsys,
                                                           flag, value, message):
        # NaN used to filter nothing and reach graph.json's meta as a bare
        # NaN, which is not JSON; a negative max-jump dropped every edge
        out = tmp_path / "out"
        assert main(["run", "--input", str(ridge_file), "--out", str(out), f"{flag}={value}"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {ridge_file}\n{flag[2:]} = {value}\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err

    def test_p_min_outside_the_unit_interval(self, ridge_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--input", str(ridge_file), "--out", str(out), "--p-min", "2"]) == 2
        assert "error: p-min must be in [0, 1], got 2.0" in capsys.readouterr().err
        assert not out.exists()

    def test_kind_alias_in_code_is_the_kind(self, ridge_file, tmp_path):
        # a config built in code resolves min/max as the flags do
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.run(cli.PipelineConfig(input=(str(ridge_file),), kind="min", out=str(a))) == 0
        assert cli.run(cli.PipelineConfig(input=(str(ridge_file),), kind="minimum",
                                          out=str(b))) == 0
        assert read_tree(a) == read_tree(b)

    @pytest.mark.parametrize("key, value", [
        ("kind", "sideways"), ("format", "raw-f16"), ("strategy", "nearest"),
        ("distance_units", "miles"), ("connect", "all"), ("strength", "sum"),
        ("require", "none"),
    ])
    def test_unknown_choice_in_code_is_a_config_error(self, ridge_file, tmp_path, key, value):
        # it used to pass, and kind="sideways" failed only in labeling
        with pytest.raises(cli.ConfigError, match=f"invalid {key.replace('_', '-')} '{value}'"):
            cli.PipelineConfig(input=(str(ridge_file),), out=str(tmp_path / "out"),
                               **{key: value})

    def test_missing_input_file_is_a_data_error(self, tmp_path):
        assert main(["run", "--input", str(tmp_path / "gone.xtrk"),
                     "--out", str(tmp_path / "out")]) == 3

    def test_corrupt_input_reports_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.xtrk"
        bad.write_bytes(b"NOPE" + b"\x00" * 60)
        assert main(["run", "--input", str(bad), "--out", str(tmp_path / "out")]) == 3
        assert "offset 0" in capsys.readouterr().err

    def test_truncated_payload(self, ridge_file, tmp_path, capsys):
        data = ridge_file.read_bytes()
        cut = tmp_path / "cut.xtrk"
        cut.write_bytes(data[: len(data) - 8])
        assert main(["run", "--input", str(cut), "--out", str(tmp_path / "out")]) == 3
        assert "offset" in capsys.readouterr().err

    def test_unknown_compare_strategy(self, ridge_file):
        assert main(["compare", "--input", str(ridge_file),
                     "--strategies", "binary,psychic"]) == 2

    def test_repeated_compare_strategy(self, ridge_file, tmp_path, capsys):
        # it used to run twice and print its compare.txt row twice
        out = tmp_path / "cmp"
        assert main(["compare", "--input", str(ridge_file), "--out", str(out),
                     "--strategies", "manifold-overlap,binary,manifold-overlap"]) == 2
        assert "strategy 'manifold-overlap' is listed twice" in capsys.readouterr().err
        assert not out.exists()

    def test_inspect_directory_is_a_data_error(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path)]) == 3
        assert f"{tmp_path}: " in capsys.readouterr().err

    def test_inspect_undecodable_file_is_a_data_error(self, tmp_path, capsys):
        p = tmp_path / "utf16.json"
        p.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["inspect", str(p)]) == 3
        assert f"{p}: not UTF-8 text" in capsys.readouterr().err

    def test_out_is_an_existing_file(self, ridge_file, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep me")
        assert main(["run", "--input", str(ridge_file), "--out", str(taken)]) == 3
        assert f"{taken}: cannot create the output directory" in capsys.readouterr().err
        assert taken.read_text() == "keep me"

    def test_out_below_a_file(self, ridge_file, tmp_path, capsys):
        below = tmp_path / "taken" / "sub"
        below.parent.write_text("")
        assert main(["run", "--input", str(ridge_file), "--out", str(below)]) == 3
        assert f"{below}: cannot create the output directory" in capsys.readouterr().err


class TestStageReports:
    def test_memory_exhaustion_exits_5_naming_the_stage(self, ridge_file, tmp_path,
                                                        monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError()

        monkeypatch.setattr(correspond, "manifold_overlap", exhausted)
        assert main(["run", "--input", str(ridge_file), "--out", str(tmp_path / "out")]) == 5
        assert "stage 'correspondence' at t=0 ran out of memory" in capsys.readouterr().err

    def test_filters_are_timed_stages(self, ridge_file, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="extrack")
        assert main(["run", "--input", str(ridge_file), "--out", str(tmp_path / "out"),
                     "--verbose", "--max-jump", "50"]) == 0
        messages = [r.getMessage() for r in caplog.records]
        assert any(m.startswith("[probability-filter] ") for m in messages)
        assert any(m.startswith("[semantic-filter] ") for m in messages)

    def test_filter_failure_names_its_stage(self, ridge_file, tmp_path, monkeypatch, capsys):
        def broken(*args):
            raise ValueError("boom")

        monkeypatch.setattr(trackgraph, "semantic_filter", broken)
        assert main(["run", "--input", str(ridge_file), "--out", str(tmp_path / "out"),
                     "--max-jump", "50"]) == 3
        assert "stage 'semantic-filter' failed: boom" in capsys.readouterr().err

    @pytest.mark.parametrize("command, target, extra, message", [
        ("run", (features, "load_features"), ["--features"], "stage 'feature-load' ran"),
        ("run", (features, "representative_extremum"), ["--features"],
         "stage 'graph-assembly' ran"),
        ("run", (field, "save_labels"), ["--dump-labels"], "stage 'dump-labels' at t=0 ran"),
        ("compare", (cli, "_write_report"), [], "stage 'report' ran"),
        ("compare", (field, "save_labels"), ["--dump-labels"],
         "stage 'dump-labels' at t=0 ran"),
        ("synth", (synth, "generate"), ["--preset", "ridge"], "stage 'synth' ran"),
        ("inspect", (json, "loads"), [], "stage 'inspect' ran"),
        ("inspect", (correspond, "doc_to_matrix"), [], "stage 'inspect' ran"),
    ], ids=["load_features", "representative_extremum", "save_labels", "write_report",
            "compare_save_labels", "synth_generate", "inspect_loads", "inspect_doc_to_matrix"])
    def test_every_stage_reports_memory_exhaustion(self, ridge_file, tmp_path, monkeypatch,
                                                   capsys, command, target, extra, message):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        out = tmp_path / "out"
        if extra == ["--features"]:
            feats = tmp_path / "features.json"
            feats.write_text('[{"t": 0, "features": [{"id": 0, "extrema": [0]}]}]')
            extra = ["--features", str(feats)]
        if command == "inspect":
            doc = tmp_path / "matrix.json"
            doc.write_text(json.dumps(MATRIX))
            argv = [command, str(doc)]
        elif command == "synth":
            argv = [command, "--out", str(out), *extra]
        else:
            argv = [command, "--input", str(ridge_file), "--out", str(out), *extra]
        monkeypatch.setattr(*target, exhausted)
        assert main(argv) == 5
        assert f"{message} out of memory" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["run"], "stage 'export' ran over the file size limit: {out}/graph.json"),
        (["run", "--dump-labels"], "stage 'dump-labels' at t=0 ran over the file size limit: "
                                   "{out}/labels_0000.xtrk"),
        (["synth", "--preset", "ridge"], "stage 'synth' ran over the file size limit: {out}"),
    ], ids=["export", "dump-labels", "synth"])
    def test_a_full_disk_exits_5_naming_stage_and_path(self, ridge_file, tmp_path, argv,
                                                       message):
        # a write past the child's 1 KiB file size limit fails with EFBIG,
        # as one on a full disk fails with ENOSPC; both used to exit 3 as bad data
        def limit_file_size():
            hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
            resource.setrlimit(resource.RLIMIT_FSIZE, (1024, hard))
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)

        out = tmp_path / ("big.xtrk" if argv[0] == "synth" else "out")
        if argv[0] == "run":
            argv = [*argv, "--input", str(ridge_file)]
        r = run_python("-m", "extrack", *argv, "--out", str(out), preexec_fn=limit_file_size)
        assert r.returncode == 5, r.stderr
        assert r.stderr == f"error: {message.format(out=out)}: File too large\n"
        # the file whose write failed is not left cut off
        named = Path(message.format(out=out).rsplit(": ", 1)[1])
        assert not named.exists()

    def test_assertion_in_one_step_names_the_step(self, ridge_file, tmp_path, monkeypatch,
                                                  capsys):
        calls = []
        real = cli.label_manifolds

        def broken_second_step(*args):
            calls.append(1)
            assert len(calls) < 2, "invariant broken"
            return real(*args)

        monkeypatch.setattr(cli, "label_manifolds", broken_second_step)
        assert main(["run", "--input", str(ridge_file), "--out", str(tmp_path / "out")]) == 4
        assert "stage 'labeling' failed at t=1: invariant broken" in capsys.readouterr().err


SEMANTIC_FLAGS = ["--value-min", "-11", "--box-min", "0,0", "--box-max", "39,25",
                  "--max-jump", "8"]


class TestGraphWork:
    """Edges carry their node rows from assembly on, and track ids are
    derived once, for the graph that is written or reported."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"propagations": 0, "row searches": 0}
        propagate, rows = trackgraph._propagate_tracks, trackgraph.NodeColumns.rows

        def counted_propagate(*args):
            counts["propagations"] += 1
            return propagate(*args)

        def counted_rows(self, *args):
            counts["row searches"] += 1
            return rows(self, *args)

        monkeypatch.setattr(trackgraph, "_propagate_tracks", counted_propagate)
        monkeypatch.setattr(trackgraph.NodeColumns, "rows", counted_rows)
        return counts

    @pytest.mark.parametrize("extra", [[], SEMANTIC_FLAGS, ["--features"]],
                             ids=["default", "semantic", "features"])
    def test_run_propagates_once_and_never_searches_rows(self, ridge_file, tmp_path, counts,
                                                         extra):
        if extra == ["--features"]:
            feats = tmp_path / "features.json"
            feats.write_text('[{"t": 0, "features": [{"id": 0, "extrema": [0, 1]}]}]')
            extra = ["--features", str(feats)]
        assert main(["run", "--input", str(ridge_file), "--out", str(tmp_path / "out"),
                     *extra]) == 0
        assert counts == {"propagations": 1, "row searches": 0}

    def test_compare_propagates_once_per_strategy(self, ridge_file, tmp_path, counts):
        assert main(["compare", "--input", str(ridge_file), "--out", str(tmp_path / "cmp"),
                     *SEMANTIC_FLAGS]) == 0
        assert counts == {"propagations": len(cli.STRATEGIES), "row searches": 0}

    def test_inspect_keeps_the_stored_tracks(self, ridge_file, tmp_path, counts, capsys):
        out = tmp_path / "out"
        assert main(["run", "--input", str(ridge_file), "--out", str(out)]) == 0
        counts.update({"propagations": 0, "row searches": 0})
        assert main(["inspect", str(out / "graph.json")]) == 0
        assert "2 tracks" in capsys.readouterr().out
        assert counts == {"propagations": 0, "row searches": 2}  # one search per edge end

    def test_semantic_flags_drop_a_node_and_its_edge(self, ridge_file, tmp_path):
        # the box drops node t0 #1 and with it edge t0 1 -> 1; the rest stays
        out = tmp_path / "out"
        assert main(["run", "--input", str(ridge_file), "--out", str(out), *SEMANTIC_FLAGS]) == 0
        doc = json.loads((out / "graph.json").read_text())
        assert [(n["t"], n["id"], n["track"]) for n in doc["nodes"]] == \
            [(0, 0, 0), (1, 0, 0), (1, 1, 1)]
        assert [(e["t"], e["i"], e["j"]) for e in doc["edges"]] == [(0, 0, 0)]


class TestCompare:
    def test_report_files_and_retention(self, ridge_file, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--input", str(ridge_file), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "strategy" in text and "retention" in text
        report = json.loads((out / "compare.json").read_text())
        assert set(report["strategies"]) == {
            "manifold-overlap", "sampling-euclidean", "sampling-combinatorial", "binary",
        }
        # every binary pair is inside every probabilistic support
        for strategy, entry in report["strategies"].items():
            assert entry["binary_retention_pct"] == 100.0
        assert (out / "compare.txt").read_text() == text
        # binary itself scores probability 1 on its own pairs
        assert report["strategies"]["binary"]["mean_prob_on_binary_pairs"] == 1.0

    def test_subset_of_strategies(self, ridge_file, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--input", str(ridge_file), "--out", str(out),
                     "--strategies", "binary,manifold-overlap"]) == 0
        report = json.loads((out / "compare.json").read_text())
        assert set(report["strategies"]) == {"binary", "manifold-overlap"}


def noisy_file(path: Path, n_steps: int = 4) -> Path:
    """A 48x40 blob series plus white noise, periodic along the first axis:
    hundreds of minima per step."""
    rng = np.random.default_rng(3)
    clean = generate(random_script(rng, (48, 40), 4, n_blobs=12, periodic=(True, False)))
    steps = tuple(s + 0.3 * rng.standard_normal(s.size) for s in clean.steps)
    save_series(ScalarFieldSeries(clean.domain, steps[:n_steps]), path)
    return path


class TestCompareReport:
    """compare.json and compare.txt, streamed from the matrices, against the
    per-entry dict formulation on the very matrices the report read."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory, ridge_file):
        d = tmp_path_factory.mktemp("compare")
        # steps 0 and 1 cluster some extrema and leave the rest uncovered;
        # steps 2 and 3 are absent (singletons)
        (d / "features.json").write_text(json.dumps([
            {"t": t, "features": [{"id": 0, "extrema": [0, 1, 2]}, {"id": 4, "extrema": [5]},
                                  {"id": 2, "extrema": [8, 3, 7]}]}
            for t in (0, 1)
        ]))
        return {"ridge": ridge_file, "noisy": noisy_file(d / "noisy.xtrk"),
                "one-step": noisy_file(d / "one.xtrk", n_steps=1),
                "features": d / "features.json"}

    @pytest.mark.parametrize("series, extra", [
        ("ridge", []),
        ("noisy", []),
        ("noisy", ["--features"]),
        ("noisy", ["--strategies", "binary"]),
        ("noisy", ["--strategies", "sampling-euclidean,manifold-overlap"]),
        ("noisy", ["--strategies", "manifold-overlap,binary", "--connect", "any"]),
        ("one-step", []),
    ], ids=["ridge", "noisy", "noisy-features", "binary-only", "no-binary", "connect-any",
            "one-step"])
    def test_report_matches_the_per_entry_oracle(self, inputs, tmp_path, monkeypatch,
                                                 series, extra):
        if extra == ["--features"]:
            extra = ["--features", str(inputs["features"])]
        oracle = []
        real = cli._write_report

        def write_and_judge(out, strategies, per_strategy):
            oracle.append(oracle_compare_report(strategies, per_strategy))
            real(out, strategies, per_strategy)

        monkeypatch.setattr(cli, "_write_report", write_and_judge)
        out = tmp_path / "cmp"
        assert main(["compare", "--input", str(inputs[series]), "--out", str(out), *extra]) == 0
        (want_json, want_txt), = oracle
        assert (out / "compare.json").read_bytes() == want_json.encode()
        assert (out / "compare.txt").read_bytes() == want_txt.encode()
        report = json.loads(want_json)
        if series == "noisy" and "binary" in report["strategies"]:
            assert len(report["binary_pairs"]) > 100

    def test_report_where_supports_miss_binary_pairs(self, tmp_path, capsys):
        # real strategies keep every binary pair; random matrices also test
        # misses (written 0.0), an empty support, and probabilities with
        # more than six decimals
        rng = np.random.default_rng(8)
        sizes = [5, 7, 4, 6]

        def random_matrix(rows, cols, direction, density):
            denom = rng.choice([3, 7, 997, 1000], size=rows)
            counts = rng.integers(1, denom[:, None] + 1, size=(rows, cols))
            dense = np.where(rng.random((rows, cols)) < density, counts, 0)
            ii, jj = np.nonzero(dense)
            return correspond.OverlapMatrix(rows, cols, direction, "manifold-overlap",
                                            *correspond._keys_and_counts(rows, cols, ii, jj,
                                                                         dense[ii, jj]),
                                            denom)

        per_strategy = {}
        for k, (s, density) in enumerate([("binary", 0.3), ("manifold-overlap", 0.5),
                                          ("sampling-euclidean", 0.8),
                                          ("sampling-combinatorial", 0.0)]):
            # (matrix, step) in key order: backward matrices, then forward
            mats = ([(random_matrix(b, a, "backward", density), t + 1)
                     for t, (a, b) in enumerate(zip(sizes, sizes[1:]))]
                    + [(random_matrix(a, b, "forward", density), t)
                       for t, (a, b) in enumerate(zip(sizes, sizes[1:]))])
            entries = sum(m.keys.size for m, _ in mats)
            per_strategy[s] = (mats, {"correspondence_entries": entries,
                                      "graph_edges": k, "tracks": 2 * k})
        reports = []
        for strategies in (["sampling-euclidean", "binary", "manifold-overlap",
                            "sampling-combinatorial"], ["manifold-overlap"]):
            chosen = {s: per_strategy[s] for s in strategies}
            cli._write_report(tmp_path, strategies, chosen)
            capsys.readouterr()
            want_json, want_txt = oracle_compare_report(strategies, chosen)
            assert (tmp_path / "compare.json").read_bytes() == want_json.encode()
            assert (tmp_path / "compare.txt").read_bytes() == want_txt.encode()
            reports.append(json.loads(want_json))
        full, alone = reports
        assert 0 < full["strategies"]["manifold-overlap"]["binary_retention_pct"] < 100
        assert full["strategies"]["sampling-combinatorial"]["binary_retention_pct"] == 0.0
        assert full["strategies"]["sampling-combinatorial"]["mean_prob_on_binary_pairs"] is None
        assert alone["binary_pairs"] == [] and "binary_retention_pct" not in str(alone)

    def test_one_step_keeps_the_binary_keys(self, inputs, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--input", str(inputs["one-step"]), "--out", str(out)]) == 0
        report = json.loads((out / "compare.json").read_text())
        assert report["binary_pairs"] == []
        for entry in report["strategies"].values():
            assert entry["binary_retention_pct"] == 100.0
            assert entry["mean_prob_on_binary_pairs"] is None

    def test_dump_labels_match_run(self, ridge_file, tmp_path):
        # compare used to accept --dump-labels and write no labels
        run_out, cmp_out = tmp_path / "run", tmp_path / "cmp"
        assert main(["run", "--input", str(ridge_file), "--out", str(run_out),
                     "--dump-labels"]) == 0
        assert main(["compare", "--input", str(ridge_file), "--out", str(cmp_out),
                     "--dump-labels"]) == 0
        labels = {k: v for k, v in read_tree(run_out).items() if k.startswith("labels_")}
        assert sorted(labels) == ["labels_0000.xtrk", "labels_0001.xtrk"]
        assert {k: v for k, v in read_tree(cmp_out).items() if k.startswith("labels_")} == labels

    def test_layers_are_built_once(self, ridge_file, tmp_path, monkeypatch):
        calls = []
        real = trackgraph.extremum_layers

        def counted(labs):
            calls.append(1)
            return real(labs)

        monkeypatch.setattr(trackgraph, "extremum_layers", counted)
        assert main(["compare", "--input", str(ridge_file), "--out", str(tmp_path / "c")]) == 0
        assert len(calls) == 1


class TestInspect:
    def test_matrix_summary(self, ridge_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--input", str(ridge_file), "--out", str(out)])
        capsys.readouterr()
        assert main(["inspect", str(out / "correspondence_forward_0000.json")]) == 0
        text = capsys.readouterr().out
        assert "correspondence matrix" in text
        assert "manifold-overlap" in text and "forward" in text
        assert "2 x 2" in text

    def test_graph_summary(self, ridge_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--input", str(ridge_file), "--out", str(out)])
        capsys.readouterr()
        assert main(["inspect", str(out / "graph.json")]) == 0
        text = capsys.readouterr().out
        assert "2 layers, 4 nodes, 2 edges, 2 tracks" in text

    def test_integer_past_the_digit_limit_is_a_data_error(self, tmp_path, capsys):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for an
        # integer literal of more than 4300 digits; it used to end in a traceback
        p = tmp_path / "g.json"
        p.write_text('{"meta": {}, "nodes": [], "edges": [], "x": ' + "1" * 5000 + "}")
        assert main(["inspect", str(p)]) == 3
        assert f"{p}: unreadable JSON: " in capsys.readouterr().err
        r = run_python("-m", "extrack", "inspect", str(p), optimize=True)
        assert r.returncode == 3, r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("name", ["graph.json", "correspondence_forward_0000.json"])
    def test_document_is_parsed_once(self, ridge_file, tmp_path, monkeypatch, name):
        out = tmp_path / "out"
        main(["run", "--input", str(ridge_file), "--out", str(out)])
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(a) or loads(*a, **k))
        assert main(["inspect", str(out / name)]) == 0
        assert len(calls) == 1

    def test_rejects_other_json(self, tmp_path):
        p = tmp_path / "other.json"
        p.write_text('{"hello": 1}')
        assert main(["inspect", str(p)]) == 3

    def test_missing_file(self, tmp_path):
        assert main(["inspect", str(tmp_path / "none.json")]) == 3

    def test_malformed_matrix_is_a_data_error(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"t": 0, "kind": "overlap", "direction": "forward",
                                 "strategy": "binary", "rows": 1, "cols": 1,
                                 "denominators": [1], "entries": [[1, 0, 1]]}))
        assert main(["inspect", str(p)]) == 3
        assert "malformed matrix document" in capsys.readouterr().err

    def test_count_above_denominator_is_a_data_error(self, tmp_path, capsys):
        # 3 of 2: printed as 3/2 = 1.5000 unless the document is validated
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"t": 0, "kind": "overlap", "direction": "forward",
                                 "strategy": "binary", "rows": 1, "cols": 2,
                                 "denominators": [2], "entries": [[0, 1, 3]]}))
        assert main(["inspect", str(p)]) == 3
        captured = capsys.readouterr()
        assert "malformed matrix document" in captured.err and "1.5" not in captured.out
        r = run_python("-m", "extrack", "inspect", str(p), optimize=True)
        assert r.returncode == 3, r.stderr
        assert "malformed matrix document" in r.stderr

    @pytest.mark.parametrize("doc, message", [
        ({**MATRIX, "rows": 1.9, "denominators": [2.7], "entries": [[0, 1.5, 1.2]]},
         "'rows' must be integers, got float64 values"),
        ({**MATRIX, "denominators": [2.7]}, "'denominators' must be integers, got float64 values"),
        ({**MATRIX, "entries": [[0, 1.5, 1.2]]}, "'entries' must be integers, got float64 values"),
        ({**MATRIX, "strategy": "nonsense"}, "unknown matrix strategy 'nonsense'"),
        ({**MATRIX, "t": -5}, "negative step t=-5"),
        ({"meta": {}, "edges": [], "nodes": [{"t": 0.7, "id": 1.9, "kind": "extremum",
                                              "vertex": 2.5, "value": 0.0, "pos": [0.0],
                                              "track": 0}]},
         "node 't' must be integers"),
    ], ids=["matrix-shape", "matrix-denominators", "matrix-entries", "matrix-strategy",
            "matrix-negative-step", "graph-node"])
    def test_non_integral_or_unknown_values_are_data_errors(self, tmp_path, capsys, doc,
                                                            message):
        # each used to be truncated or taken as it stood, with exit 0
        p = tmp_path / "d.json"
        p.write_text(json.dumps(doc))
        assert main(["inspect", str(p)]) == 3
        assert message in capsys.readouterr().err
        r = run_python("-m", "extrack", "inspect", str(p), optimize=True)
        assert r.returncode == 3, r.stderr
        assert message in r.stderr

    def test_malformed_graph_is_a_data_error(self, ridge_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--input", str(ridge_file), "--out", str(out)])
        doc = json.loads((out / "graph.json").read_text())
        del doc["nodes"][0]["track"]
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["inspect", str(p)]) == 3
        assert "malformed graph document" in capsys.readouterr().err

    def test_graph_lists_strongest_edges_first(self, tmp_path, capsys):
        node = {"t": 0, "id": 0, "kind": "extremum", "vertex": 0, "value": 0.0,
                "pos": [0.0], "track": 0}
        nodes = [{**node, "t": t, "id": i} for t in (0, 1) for i in range(3)]
        strengths = [0.2, 0.9, 0.5, 0.9, 0.1, 0.3, 0.7, 0.4, 0.6]
        edges = [{"t": 0, "i": k // 3, "j": k % 3, "pf": s, "strength": s}
                 for k, s in enumerate(strengths)]
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"meta": {}, "nodes": nodes, "edges": edges}))
        assert main(["inspect", str(p)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "tracking graph: 2 layers, 6 nodes, 9 edges, 1 tracks"
        # ties keep (t, i, j) order
        assert lines[1:4] == ["  t0 0 -> 1  strength 0.9000", "  t0 1 -> 0  strength 0.9000",
                              "  t0 2 -> 0  strength 0.7000"]

    def test_graph_is_validated(self, ridge_file, tmp_path, capsys):
        p = tmp_path / "g.json"
        p.write_text('{"meta": {}, "nodes": [{"t": 0, "track": 0}], '
                     '"edges": [{"t": 0, "i": 5, "j": 9, "strength": 7.0}]}')
        assert main(["inspect", str(p)]) == 3
        assert "malformed graph document" in capsys.readouterr().err
        r = run_python("-m", "extrack", "inspect", str(p), optimize=True)
        assert r.returncode == 3, r.stderr
        # a run's own graph with one edge pointing past its layer, and with
        # a strength above 1: both were printed before
        out = tmp_path / "out"
        main(["run", "--input", str(ridge_file), "--out", str(out)])
        for key, value, message in (("j", 99, "does not exist"), ("strength", 7.0, "(0, 1]")):
            doc = json.loads((out / "graph.json").read_text())
            doc["edges"][0][key] = value
            p.write_text(json.dumps(doc))
            capsys.readouterr()
            assert main(["inspect", str(p)]) == 3
            assert message in capsys.readouterr().err


    @pytest.mark.parametrize("nodes, message", [
        ([{"t": 0, "id": 0}] * 2, "node t0 #0 is listed twice"),
        ([{"t": -2, "id": 0}], "node t-2 #0 has a negative step"),
    ], ids=["twice", "negative-step"])
    def test_repeated_or_negative_node_is_a_data_error(self, tmp_path, capsys, nodes, message):
        # both were accepted before; a node at t=-2 vanished from the DOT export
        node = {"kind": "extremum", "vertex": 0, "value": 0.0, "pos": [0.0, 0.0], "track": 0}
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"meta": {}, "nodes": [{**node, **n} for n in nodes],
                                 "edges": []}))
        assert main(["inspect", str(p)]) == 3
        assert message in capsys.readouterr().err
        r = run_python("-m", "extrack", "inspect", str(p), optimize=True)
        assert r.returncode == 3, r.stderr
        assert message in r.stderr

    def test_repeated_edge_is_a_data_error(self, tmp_path, capsys):
        # inspect used to print "2 edges" for one edge listed twice, and the
        # DOT export drew both
        node = {"id": 0, "kind": "extremum", "vertex": 0, "value": 0.0, "pos": [0.0, 0.0],
                "track": 0}
        edges = [{"t": 0, "i": 0, "j": 0, "pf": 1.0, "strength": s} for s in (0.5, 0.9)]
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"meta": {}, "nodes": [{**node, "t": t} for t in (0, 1)],
                                 "edges": edges}))
        assert main(["inspect", str(p)]) == 3
        assert "edge t0 0 -> 0 is listed twice" in capsys.readouterr().err
        r = run_python("-m", "extrack", "inspect", str(p), optimize=True)
        assert r.returncode == 3, r.stderr
        assert "edge t0 0 -> 0 is listed twice" in r.stderr

    @pytest.mark.parametrize("kind, key, value", [
        ("matrix", "rows", 2**63),
        ("matrix", "t", 2**64),
        ("matrix", "denominators", [1, 2**63]),
        ("graph", "id", -2**63 - 1),
        ("graph", "vertex", 2**63),
        ("features", "id", 2**63),
        ("features", "t", -2**63 - 1),
        ("features", "extrema", [1, 2**64]),
    ])
    def test_integers_outside_int64_are_named(self, ridge_file, tmp_path, capsys, kind, key,
                                              value):
        # numpy reads them as uint64, object or float64 values; the message
        # must name the integer instead
        if kind == "matrix":
            doc = {**MATRIX, key: value}
        elif kind == "graph":
            node = {"t": 0, "id": 0, "kind": "extremum", "vertex": 0, "value": 0.0,
                    "pos": [0.0], "track": 0}
            doc = {"meta": {}, "nodes": [{**node, key: value}], "edges": []}
        else:
            doc = {"t": 0, "features": [{"id": 0, "extrema": [0]}]}
            (doc if key == "t" else doc["features"][0])[key] = value
        p = tmp_path / "d.json"
        p.write_text(json.dumps(doc))
        argv = ["inspect", str(p)]
        if kind == "features":
            argv = ["run", "--input", str(ridge_file), "--out", str(tmp_path / "out"),
                    "--features", str(p)]
        big = value[-1] if isinstance(value, list) else value
        message = f"'{key}' must be integers, got {big}, which does not fit in int64"
        assert main(argv) == 3
        assert message in capsys.readouterr().err
        r = run_python("-m", "extrack", *argv, optimize=True)
        assert r.returncode == 3, r.stderr
        assert message in r.stderr

    @staticmethod
    def _graph_doc(where, key, value):
        node = {"id": 0, "kind": "extremum", "vertex": 0, "value": 0.0, "pos": [0.0, 0.0],
                "track": 0}
        nodes = [{**node, "t": t} for t in (0, 1)]
        edges = [{"t": 0, "i": 0, "j": 0, "pf": 1.0, "strength": 1.0}]
        (nodes if where == "node" else edges)[0][key] = value
        return {"meta": {}, "nodes": nodes, "edges": edges}

    @pytest.mark.parametrize("where, key, value", [
        ("node", "value", 2**63),
        ("node", "value", -2**70),
        ("node", "pos", [1.0, 2**63]),
        ("node", "pos", [2**64, 3]),
    ])
    def test_any_integer_in_a_real_key_is_a_float(self, tmp_path, where, key, value):
        # a lone 2**63 used to be refused while [1.0, 2**63] loaded as floats
        doc = self._graph_doc(where, key, value)
        g = trackgraph.doc_to_graph(json.loads(json.dumps(doc)))
        got = getattr(g.node_columns, key)[0]
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, np.asarray(value, dtype=np.float64))
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        assert main(["inspect", str(p)]) == 0
        r = run_python("-m", "extrack", "inspect", str(p), optimize=True)
        assert r.returncode == 0, r.stderr

    @pytest.mark.parametrize("where, key, value", [
        ("node", "value", 10**400),
        ("node", "pos", [0.0, -10**400]),
        ("edge", "pf", 10**400),
        ("edge", "strength", [2**1024]),
    ])
    def test_integer_beyond_float64_is_a_data_error(self, tmp_path, capsys, where, key, value):
        doc = self._graph_doc(where, key, value)
        big = value[-1] if isinstance(value, list) else value
        message = f"{where} '{key}' must be numbers, got {big}, which does not fit in float64"
        with pytest.raises(ValueError, match=message):
            trackgraph.doc_to_graph(json.loads(json.dumps(doc)))
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        assert main(["inspect", str(p)]) == 3
        assert message in capsys.readouterr().err
        r = run_python("-m", "extrack", "inspect", str(p), optimize=True)
        assert r.returncode == 3, r.stderr
        assert message in r.stderr
        assert "Traceback" not in r.stderr


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        exe = shutil.which("extrack")
        assert exe, "console script not installed"
        out = tmp_path / "cli.xtrk"
        r = subprocess.run([exe, "synth", "--preset", "ridge", "--out", str(out)],
                           capture_output=True, text=True)
        assert r.returncode == 0
        assert out.exists()

    def test_usage_error_exits_2(self):
        exe = shutil.which("extrack")
        r = subprocess.run([exe], capture_output=True, text=True)
        assert r.returncode == 2
        r = subprocess.run([exe, "run", "--strategy", "telepathy"],
                           capture_output=True, text=True)
        assert r.returncode == 2


class TestModuleEntryPoint:
    @staticmethod
    def _run(*args):
        return run_python("-m", "extrack", *args)

    def test_synth_runs(self, tmp_path):
        out = tmp_path / "cli.xtrk"
        r = self._run("synth", "--preset", "ridge", "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert out.exists()

    def test_no_arguments_exits_2(self):
        assert self._run().returncode == 2

    @pytest.mark.parametrize("command", ["run", "compare", "inspect"])
    def test_commands_leave_numpy_ma_unimported(self, tmp_path, command):
        # a plain np.unique imports numpy.ma, 10-14 ms of every process's start
        series = random_series(np.random.default_rng(7), (12, 10), 3, periodic=(False, True))
        save_series(series, tmp_path / "p.xtrk")
        args = ["--input", str(tmp_path / "p.xtrk"), "--out", str(tmp_path / "out")]
        if command == "inspect":
            assert main(["run", *args]) == 0
            args = [str(tmp_path / "out" / "graph.json")]
        script = ("import sys\nfrom extrack.cli import main\n"
                  "code = main(sys.argv[1:])\nprint(code, 'numpy.ma' in sys.modules)\n")
        r = run_python("-c", script, command, *args)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == "0 False"

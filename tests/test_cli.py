import json
import logging
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from extrack import cli, correspond, features, field, trackgraph
from extrack.cli import main
from extrack.field import GridDomain, load_labels, load_series, save_series
from extrack.synth import GaussianBlob, GaussianScript, generate, save_script
from helpers import oracle_matrix_json, random_series, run_python


@pytest.fixture(scope="module")
def ridge_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ridge.xtrk"
    assert main(["synth", "--preset", "ridge", "--out", str(path)]) == 0
    return path


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
            m, t = correspond.load_matrix(p)
            again = tmp_path / "again.json"
            correspond.save_matrix(m, t, again)
            assert again.read_bytes() == p.read_bytes(), p.name
            loaded.append(m)
        assert sum((m.row_sums() < m.row_denominators).any() for m in loaded) == 2


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
                m, t = correspond.load_matrix(path)
                assert path.read_text() == oracle_matrix_json(m, t), path.name
            a, b = p.read_text().splitlines(), twin.read_text().splitlines()
            k = a.index('  "kind": "overlap",')
            assert len(a) == len(b) and b[k] == '  "kind": "correspondence",'
            assert [i for i, (x, y) in enumerate(zip(a, b)) if x != y] == [k]


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

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 2

    def test_malformed_point_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--input", str(tmp_path / "x"), "--box-min", "a,b"])
        assert exc.value.code == 2
        assert "--box-min" in capsys.readouterr().err

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
    ], ids=["load_features", "representative_extremum", "save_labels", "write_report"])
    def test_every_stage_reports_memory_exhaustion(self, ridge_file, tmp_path, monkeypatch,
                                                   capsys, command, target, extra, message):
        def exhausted(*args):
            raise MemoryError()

        if extra == ["--features"]:
            feats = tmp_path / "features.json"
            feats.write_text('[{"t": 0, "features": [{"id": 0, "extrema": [0]}]}]')
            extra = ["--features", str(feats)]
        monkeypatch.setattr(*target, exhausted)
        assert main([command, "--input", str(ridge_file), "--out", str(tmp_path / "out"),
                     *extra]) == 5
        assert f"{message} out of memory" in capsys.readouterr().err

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

"""Command line pipeline: load, simplify, correspond, filter, export.

Subcommands:
  run      full pipeline on one series, writing matrices and the graph
  compare  run several strategies on shared labelings, emit a report
  synth    generate a synthetic series file from a script or preset
  inspect  summarize a matrix or graph JSON document

Exit codes: 0 ok, 2 bad configuration, 3 bad or missing data, 4 internal
assertion failure, 5 out of memory. A flat key=value config file can
preset any run flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import correspond, features, field, synth, trackgraph
from .field import GridDomain, ScalarFieldSeries, SeriesFormatError
from .morse import ManifoldLabeling, label_manifolds, simplify

log = logging.getLogger("extrack")

STRATEGIES = ("binary", "sampling-euclidean", "sampling-combinatorial", "manifold-overlap")
DEFAULT_P_MIN = {
    "manifold-overlap": 0.25,
    "sampling-euclidean": 0.1,
    "sampling-combinatorial": 0.1,
    "binary": 0.0,
}


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


class StageError(Exception):
    def __init__(self, stage: str, t, cause: BaseException):
        at = "" if t is None else f" at t={t}"
        if isinstance(cause, MemoryError):
            super().__init__(f"stage {stage!r}{at} ran out of memory")
        else:
            super().__init__(f"stage {stage!r} failed{at}: {cause}")
        self.cause = cause


@dataclass(frozen=True)
class PipelineConfig:
    input: tuple[str, ...]
    format: str = "raw-f64"
    kind: str = "minimum"
    persistence_pct: float = 0.5
    global_range: bool = False
    strategy: str = "manifold-overlap"
    d: float = 2.0
    distance_units: str = "world"
    connect: str = "bidirectional"
    strength: str = "max"
    p_min: float | None = None
    require: str = "any"
    value_min: float | None = None
    value_max: float | None = None
    box_min: tuple[float, ...] | None = None
    box_max: tuple[float, ...] | None = None
    max_jump: float | None = None
    features: str | None = None
    out: str = "out"
    dump_labels: bool = False
    jobs: int = 1

    def __post_init__(self):
        if not self.input:
            raise ConfigError("no input file given")
        if self.format not in ("raw-f64", "raw-f32", "csv"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.kind not in ("minimum", "maximum"):
            raise ConfigError(f"kind must be minimum or maximum, got {self.kind!r}")
        if not 0.0 <= self.persistence_pct <= 100.0:
            raise ConfigError(f"persistence-pct must be in [0, 100], got {self.persistence_pct}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.d < 0 or not math.isfinite(self.d):
            raise ConfigError(f"d must be a finite non-negative number, got {self.d}")
        if self.distance_units not in ("world", "lattice"):
            raise ConfigError(f"distance-units must be world or lattice, got {self.distance_units!r}")
        if self.connect not in ("bidirectional", "any"):
            raise ConfigError(f"connect must be bidirectional or any, got {self.connect!r}")
        if self.strength not in ("max", "avg", "min"):
            raise ConfigError(f"unknown strength rule {self.strength!r}")
        if self.p_min is not None and not 0.0 <= self.p_min <= 1.0:
            raise ConfigError(f"p-min must be in [0, 1], got {self.p_min}")
        if self.require not in ("any", "both"):
            raise ConfigError(f"require must be any or both, got {self.require!r}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be at least 1, got {self.jobs}")
        if (self.value_min is not None and self.value_max is not None
                and self.value_min > self.value_max):
            raise ConfigError("inverted value range")
        if self.box_min is not None and self.box_max is not None:
            if len(self.box_min) != len(self.box_max):
                raise ConfigError("box-min and box-max have different ranks")
            if any(a > b for a, b in zip(self.box_min, self.box_max)):
                raise ConfigError("inverted spatial box")

    def effective_p_min(self, strategy: str | None = None) -> float:
        if self.p_min is not None:
            return self.p_min
        return DEFAULT_P_MIN[strategy or self.strategy]

    def echo(self, strategy: str | None = None) -> dict:
        """Parameter echo for output metadata.

        Execution knobs (jobs, output paths) are left out so that reruns
        and different parallelism degrees stay byte-identical.
        """
        strategy = strategy or self.strategy
        doc = {
            "input": list(self.input),
            "format": self.format,
            "kind": self.kind,
            "persistence_pct": self.persistence_pct,
            "global_range": self.global_range,
            "strategy": strategy,
            "d": self.d,
            "distance_units": self.distance_units,
            "connect": self.connect,
            "strength": self.strength,
            "p_min": self.effective_p_min(strategy),
            "require": self.require,
            "features": self.features,
        }
        for k in ("value_min", "value_max", "max_jump"):
            if getattr(self, k) is not None:
                doc[k] = getattr(self, k)
        for k in ("box_min", "box_max"):
            if getattr(self, k) is not None:
                doc[k] = list(getattr(self, k))
        return doc


def _pmap(fn, items, jobs: int):
    """Order-preserving map, threaded when jobs > 1."""
    if jobs <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _timed(stage: str, fn, *args, t=None):
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except (ConfigError, DataError, StageError):
        raise
    except Exception as e:
        raise StageError(stage, t, e) from e
    log.info("[%s] %.3fs", stage, time.perf_counter() - t0)
    return out


def _load_input(config: PipelineConfig) -> ScalarFieldSeries:
    try:
        parts = [field.load_series(p, config.format) for p in config.input]
    except SeriesFormatError as e:
        off = "" if e.offset is None else f" (byte offset {e.offset})"
        raise DataError(f"{config.input}: {e}{off}") from e
    except OSError as e:
        raise DataError(str(e)) from e
    if len(parts) == 1:
        return parts[0]
    try:
        return field.stack_series(parts)
    except ValueError as e:
        raise DataError(str(e)) from e


def _label_all(series: ScalarFieldSeries, config: PipelineConfig) -> list[ManifoldLabeling]:
    value_range = None
    if config.global_range:
        value_range = float(max(s.max() for s in series.steps) - min(s.min() for s in series.steps))

    def one(t: int) -> ManifoldLabeling:
        try:
            lab = label_manifolds(series.steps[t], series.domain, config.kind)
            return simplify(lab, series.steps[t], config.persistence_pct, value_range)
        except AssertionError:
            raise
        except Exception as e:
            raise StageError("labeling", t, e) from e

    return _timed("labeling", lambda: _pmap(one, range(series.n_steps), config.jobs))


def _pair_matrices(labs: list[ManifoldLabeling], domain: GridDomain, config: PipelineConfig,
                   strategy: str):
    """Per consecutive pair: (overlap fwd, overlap bwd, corr fwd, corr bwd).

    Binary mode has no overlap matrices; those slots hold None.
    """
    lattice = config.distance_units == "lattice"

    def one(t: int):
        try:
            if strategy == "manifold-overlap":
                o_f, o_b = correspond.manifold_overlap(labs[t], labs[t + 1])
                return o_f, o_b, correspond.normalize(o_f), correspond.normalize(o_b)
            if strategy in ("sampling-euclidean", "sampling-combinatorial"):
                mode = strategy.split("-", 1)[1]
                o_f = correspond.sampling_overlap(labs[t], labs[t + 1], domain, mode,
                                                  config.d, "forward", lattice)
                o_b = correspond.sampling_overlap(labs[t + 1], labs[t], domain, mode,
                                                  config.d, "backward", lattice)
                return o_f, o_b, correspond.normalize(o_f), correspond.normalize(o_b)
            c_f = correspond.binary_correspondence(labs[t], labs[t + 1], "forward")
            c_b = correspond.binary_correspondence(labs[t + 1], labs[t], "backward")
            return None, None, c_f, c_b
        except AssertionError:
            raise
        except Exception as e:
            raise StageError("correspondence", t, e) from e

    return _timed("correspondence", lambda: _pmap(one, range(len(labs) - 1), config.jobs))


def _feature_sets_for(labs: list[ManifoldLabeling], path: str) -> list[features.FeatureSet]:
    """Feature sets per step; steps missing from the file get singletons."""
    try:
        loaded = {fs.t: fs for fs in features.load_features(path)}
    except FileNotFoundError as e:
        raise DataError(str(e)) from e
    except (ValueError, KeyError, TypeError) as e:
        raise DataError(f"{path}: bad feature file: {e}") from e
    out = []
    for t, lab in enumerate(labs):
        fs = loaded.get(t)
        if fs is None:
            fs = features.singleton_features(t, lab.n_extrema)
        out.append(fs)
    return out


def _feature_pair_matrices(fsets, pair_mats, config: PipelineConfig):
    def one(t: int):
        try:
            o_f, o_b, c_f, c_b = pair_mats[t]
            fo_f = features.feature_overlap(fsets[t], fsets[t + 1], o_f if o_f is not None else c_f)
            fo_b = features.feature_overlap(fsets[t + 1], fsets[t], o_b if o_b is not None else c_b)
            return fo_f, fo_b, features.feature_correspondence(fo_f), features.feature_correspondence(fo_b)
        except AssertionError:
            raise
        except Exception as e:
            raise StageError("feature-lift", t, e) from e

    return _timed("feature-lift", lambda: _pmap(one, range(len(pair_mats)), config.jobs))


def _feature_layers(fsets, labs, domain: GridDomain) -> list[trackgraph.NodeColumns]:
    layers = []
    for t, (fs, lab) in enumerate(zip(fsets, labs)):
        reps = [features.representative_extremum(s, lab) for s in fs.index_sets]
        vertex = np.array([r.vertex for r in reps], dtype=np.int64)
        value = np.array([r.value for r in reps], dtype=np.float64)
        layers.append(trackgraph.NodeColumns.for_step(t, "feature", vertex, value,
                                                      domain.positions(vertex)))
    return layers


def _build_graph(labs, fsets, pair_mats, fpair_mats, config: PipelineConfig, strategy: str):
    policy = trackgraph.ConnectivityPolicy(config.connect == "bidirectional", config.strength)
    if fsets is None:
        layers = trackgraph.extremum_layers(labs)
        cm_f = [m[2] for m in pair_mats]
        cm_b = [m[3] for m in pair_mats]
    else:
        layers = _feature_layers(fsets, labs, labs[0].domain)
        cm_f = [m[2] for m in fpair_mats]
        cm_b = [m[3] for m in fpair_mats]
    g = _timed("graph-assembly", lambda: trackgraph.assemble(layers, cm_f, cm_b, policy, strategy))
    p_min = config.effective_p_min(strategy)
    g = _timed("probability-filter",
               lambda: trackgraph.threshold_filter(g, p_min, config.require))
    predicate = trackgraph.SemanticPredicate(
        config.value_min, config.value_max, config.box_min, config.box_max, config.max_jump
    )
    if predicate != trackgraph.SemanticPredicate():
        g = _timed("semantic-filter",
                   lambda: trackgraph.semantic_filter(g, labs[0].domain, predicate))
    meta = {**g.meta, "config": config.echo(strategy)}
    return trackgraph.TrackingGraph(g.node_columns, g.edge_columns, meta)


def _write_matrices(out: Path, pair_mats, prefix: str = "") -> None:
    for t, (o_f, o_b, c_f, c_b) in enumerate(pair_mats):
        if o_f is not None:
            correspond.save_matrix(o_f, t, out / f"{prefix}overlap_forward_{t:04d}.json")
            correspond.save_matrix(o_b, t + 1, out / f"{prefix}overlap_backward_{t + 1:04d}.json")
        correspond.save_matrix(c_f, t, out / f"{prefix}correspondence_forward_{t:04d}.json")
        correspond.save_matrix(c_b, t + 1, out / f"{prefix}correspondence_backward_{t + 1:04d}.json")


def run(config: PipelineConfig) -> int:
    """Full pipeline; writes artifacts into the output directory."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    series = _timed("load", lambda: _load_input(config))
    labs = _label_all(series, config)
    if config.dump_labels:
        for t, lab in enumerate(labs):
            field.save_labels(lab.label, series.domain, out / f"labels_{t:04d}.xtrk")
    pair_mats = _pair_matrices(labs, series.domain, config, config.strategy)
    fsets = fpair = None
    if config.features is not None:
        fsets = _feature_sets_for(labs, config.features)
        fpair = _feature_pair_matrices(fsets, pair_mats, config)
    g = _build_graph(labs, fsets, pair_mats, fpair, config, config.strategy)
    _timed("export", lambda: _write_outputs(out, pair_mats, fpair, g))
    return 0


def _write_outputs(out: Path, pair_mats, fpair, g) -> None:
    _write_matrices(out, pair_mats)
    if fpair is not None:
        _write_matrices(out, fpair, prefix="feature_")
    (out / "graph.json").write_text(trackgraph.export(g, "json"), encoding="utf-8")
    (out / "graph.dot").write_text(trackgraph.export(g, "dot"), encoding="utf-8")


def compare(config: PipelineConfig, strategies) -> int:
    """Run several strategies on one set of labelings; write a report."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    series = _timed("load", lambda: _load_input(config))
    labs = _label_all(series, config)
    fsets = _feature_sets_for(labs, config.features) if config.features is not None else None

    per_strategy = {}
    binary_support = None
    for strategy in strategies:
        pair_mats = _pair_matrices(labs, series.domain, config, strategy)
        fpair = _feature_pair_matrices(fsets, pair_mats, config) if fsets is not None else None
        g = _build_graph(labs, fsets, pair_mats, fpair, config, strategy)
        support = set()
        probs = {}
        for t, (_, _, c_f, c_b) in enumerate(pair_mats):
            for i, j, p in c_f.items():
                support.add(("forward", t, i, j))
                probs[("forward", t, i, j)] = p
            for i, j, p in c_b.items():
                support.add(("backward", t + 1, i, j))
                probs[("backward", t + 1, i, j)] = p
        per_strategy[strategy] = {
            "entries": len(support),
            "graph_edges": len(g.edge_columns),
            "tracks": np.unique(g.node_columns.track).size,
            "support": support,
            "probs": probs,
        }
        if strategy == "binary":
            binary_support = support

    report = {"strategies": {}, "binary_pairs": []}
    for strategy in strategies:
        info = per_strategy[strategy]
        entry = {
            "correspondence_entries": info["entries"],
            "graph_edges": info["graph_edges"],
            "tracks": info["tracks"],
        }
        if binary_support is not None:
            kept = binary_support & info["support"]
            entry["binary_retention_pct"] = round(100.0 * len(kept) / len(binary_support), 3) \
                if binary_support else 100.0
            entry["mean_prob_on_binary_pairs"] = round(
                float(np.mean([info["probs"][k] for k in sorted(kept)])), 6
            ) if kept else None
        report["strategies"][strategy] = entry
    if binary_support is not None:
        for key in sorted(binary_support):
            direction, t, i, j = key
            report["binary_pairs"].append({
                "direction": direction, "t": t, "i": i, "j": j,
                "probs": {s: round(per_strategy[s]["probs"].get(key, 0.0), 6) for s in strategies},
            })

    (out / "compare.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    lines = [f"{'strategy':24} {'entries':>8} {'edges':>6} {'tracks':>7} {'retention':>10} {'mean-p':>8}"]
    for strategy in strategies:
        e = report["strategies"][strategy]
        ret = e.get("binary_retention_pct")
        mp = e.get("mean_prob_on_binary_pairs")
        lines.append(
            f"{strategy:24} {e['correspondence_entries']:>8} {e['graph_edges']:>6} "
            f"{e['tracks']:>7} {'' if ret is None else f'{ret:9.1f}%':>10} "
            f"{'' if mp is None else f'{mp:8.4f}':>8}"
        )
    text = "\n".join(lines) + "\n"
    (out / "compare.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def cmd_synth(args) -> int:
    if args.preset is None and args.script is None:
        raise ConfigError("synth needs --preset or --script")
    if args.preset is not None and args.script is not None:
        raise ConfigError("give either --preset or --script, not both")
    if args.preset is not None:
        if args.preset != "ridge":
            raise ConfigError(f"unknown preset {args.preset!r}")
        script = synth.ridge_script()
    else:
        try:
            script = synth.load_script(args.script)
        except FileNotFoundError as e:
            raise DataError(str(e)) from e
        except (ValueError, KeyError, TypeError) as e:
            raise DataError(f"{args.script}: bad script: {e}") from e
    series = synth.generate(script)
    if args.dtype == "f32":
        series = ScalarFieldSeries(
            series.domain, tuple(s.astype(np.float32) for s in series.steps)
        )
    field.save_series(series, args.out)
    if args.save_script:
        synth.save_script(script, args.save_script)
    log.info("wrote %s (%d steps, dims %s)", args.out, series.n_steps, series.domain.dims)
    return 0


def cmd_inspect(args) -> int:
    try:
        doc = json.loads(Path(args.path).read_text(encoding="utf-8"))
    except FileNotFoundError as e:
        raise DataError(str(e)) from e
    except json.JSONDecodeError as e:
        raise DataError(f"{args.path}: not JSON: {e}") from e
    w = sys.stdout.write
    try:
        if isinstance(doc, dict) and "entries" in doc and "direction" in doc:
            w(f"{doc['kind']} matrix, {doc['strategy']}, {doc['direction']} at t={doc['t']}\n")
            w(f"shape {doc['rows']} x {doc['cols']}, {len(doc['entries'])} stored entries\n")
            denom = doc["denominators"]
            for e in doc["entries"][:20]:
                i, j, c = e
                w(f"  ({i} -> {j}): {c}/{denom[i]} = {c / denom[i]:.4f}\n")
            if len(doc["entries"]) > 20:
                w(f"  ... {len(doc['entries']) - 20} more\n")
            return 0
        if isinstance(doc, dict) and "nodes" in doc and "edges" in doc:
            nodes, edges = doc["nodes"], doc["edges"]
            layers = 1 + max((n["t"] for n in nodes), default=-1)
            tracks = len({n["track"] for n in nodes})
            w(f"tracking graph: {layers} layers, {len(nodes)} nodes, {len(edges)} edges, {tracks} tracks\n")
            meta = doc.get("meta", {})
            if meta.get("strategy"):
                w(f"strategy {meta['strategy']}, policy {meta.get('policy')}\n")
            for e in sorted(edges, key=lambda e: -e["strength"])[:10]:
                w(f"  t{e['t']} {e['i']} -> {e['j']}  strength {e['strength']:.4f}\n")
            return 0
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as e:
        what = "matrix" if "entries" in doc else "graph"
        raise DataError(f"{args.path}: malformed {what} document: {e!r}") from e
    raise DataError(f"{args.path}: neither a matrix nor a graph document")


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


def _parse_point(s: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in s.split(","))
    except ValueError as e:
        raise ConfigError(f"not a comma-separated point: {s!r}") from e


_CONFIG_KEYS = {
    "input": lambda s: tuple(s.split(",")),
    "format": str,
    "kind": str,
    "persistence_pct": float,
    "global_range": _parse_bool,
    "strategy": str,
    "d": float,
    "distance_units": str,
    "connect": str,
    "strength": str,
    "p_min": float,
    "require": str,
    "value_min": float,
    "value_max": float,
    "box_min": _parse_point,
    "box_max": _parse_point,
    "max_jump": float,
    "features": str,
    "out": str,
    "dump_labels": _parse_bool,
    "jobs": int,
}


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as e:
        raise ConfigError(str(e)) from e
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _CONFIG_KEYS[key](value.strip())
        except (ValueError, ConfigError) as e:
            raise ConfigError(f"{path}:{lineno}: {e}") from e
    return out


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--verbose", action="store_true", help="log stage timings")
    p.add_argument("--config", help="flat key = value file; explicit flags win")
    p.add_argument("--input", nargs="+", help="series file(s); csv mode takes one per step")
    p.add_argument("--format", choices=["raw-f64", "raw-f32", "csv"])
    p.add_argument("--kind", choices=["minimum", "maximum", "min", "max"])
    p.add_argument("--persistence-pct", type=float, dest="persistence_pct",
                   help="persistence threshold, percent of range (default 0.5)")
    p.add_argument("--global-range", action="store_const", const=True, dest="global_range",
                   help="use the series-wide range for the threshold")
    p.add_argument("--strategy", choices=list(STRATEGIES))
    p.add_argument("--d", type=float, help="sampling distance (default 2)")
    p.add_argument("--distance-units", choices=["world", "lattice"], dest="distance_units")
    p.add_argument("--connect", choices=["bidirectional", "any"])
    p.add_argument("--strength", choices=["max", "avg", "min"])
    p.add_argument("--p-min", type=float, dest="p_min",
                   help="probability threshold (default 0.25 manifold, 0.1 sampling)")
    p.add_argument("--require", choices=["any", "both"])
    p.add_argument("--value-min", type=float, dest="value_min")
    p.add_argument("--value-max", type=float, dest="value_max")
    p.add_argument("--box-min", type=_parse_point, dest="box_min")
    p.add_argument("--box-max", type=_parse_point, dest="box_max")
    p.add_argument("--max-jump", type=float, dest="max_jump")
    p.add_argument("--features", help="feature-set JSON side file")
    p.add_argument("--out", help="output directory (default out)")
    p.add_argument("--dump-labels", action="store_const", const=True, dest="dump_labels")
    p.add_argument("--jobs", type=int)


def _config_from_args(args) -> PipelineConfig:
    base = _read_config_file(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        v = getattr(args, key, None)
        if v is not None:
            base[key] = v
    if "kind" in base:
        base["kind"] = {"min": "minimum", "max": "maximum"}.get(base["kind"], base["kind"])
    base["input"] = tuple(base.get("input", ()))
    return PipelineConfig(**base)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="extrack",
        description="Track scalar-field extrema over time via manifold overlap.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline")
    _add_pipeline_flags(p_run)

    p_cmp = sub.add_parser("compare", help="run several strategies side by side")
    _add_pipeline_flags(p_cmp)
    p_cmp.add_argument("--strategies", default=",".join(STRATEGIES),
                       help="comma-separated list (default: all four)")

    p_syn = sub.add_parser("synth", help="write a synthetic series")
    p_syn.add_argument("--verbose", action="store_true", help="log progress")
    p_syn.add_argument("--preset", choices=["ridge"])
    p_syn.add_argument("--script", help="Gaussian script JSON")
    p_syn.add_argument("--out", required=True, help="output series path")
    p_syn.add_argument("--dtype", choices=["f32", "f64"], default="f64")
    p_syn.add_argument("--save-script", dest="save_script",
                       help="also write the script JSON (for presets)")

    p_ins = sub.add_parser("inspect", help="summarize a matrix or graph JSON")
    p_ins.add_argument("--verbose", action="store_true", help="log progress")
    p_ins.add_argument("path")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(message)s",
    )
    try:
        if args.command == "run":
            return run(_config_from_args(args))
        if args.command == "compare":
            strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
            for s in strategies:
                if s not in STRATEGIES:
                    raise ConfigError(f"unknown strategy {s!r}")
            if not strategies:
                raise ConfigError("empty strategy list")
            return compare(_config_from_args(args), strategies)
        if args.command == "synth":
            return cmd_synth(args)
        return cmd_inspect(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except StageError as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e.cause, MemoryError):
            return 5
        return 4 if isinstance(e.cause, AssertionError) else 3
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except AssertionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Command line pipeline: load, simplify, correspond, filter, export.

Subcommands:
  run      full pipeline on one series, writing matrices and the graph
  compare  run several strategies on shared labelings, emit a report
  synth    generate a synthetic series file from a script or preset
  inspect  summarize a matrix or graph JSON document

Exit codes: 0 ok, 141 (128 + SIGPIPE) when the reader of stdout or of an
output FIFO closes it early, and otherwise the code that the ``ExitError``
ending the run carries: 2 for a ``ConfigError``, 3 for a ``DataError`` (bad
or missing data), and for a ``StageError`` 5 out of memory or disk, 4 an
internal assertion failure, 3 anything else. Every step of run and compare
is a named stage, as is the whole of synth and of inspect, and a failure
inside one that is not an ``ExitError`` becomes the ``StageError`` naming
the stage and step. A flat key=value config file can preset any run flag,
read by that flag's own parser; explicit flags win.

run may write its outputs on two processes: from ``_FORK_RECORDS``
records on, where os.fork exists, no other thread runs and a second CPU is
free, a forked writer shares the export's queue of write jobs. --jobs
counts threads, not this writer. The files, their bytes, the exit codes
and what a failure leaves in --out are those of an in-process export,
except where the failure comes from a resource the files share (a full
disk or quota): the two processes then fill it in another order, so the
run may name another file and leave fewer.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import logging
import math
import os
import pickle
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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
# the values each choice-valued flag, config key and setting accepts
CHOICES = {
    "format": ("raw-f64", "raw-f32", "csv"),
    "kind": ("minimum", "maximum", "min", "max"),
    "strategy": STRATEGIES,
    "distance_units": ("world", "lattice"),
    "connect": ("bidirectional", "any"),
    "strength": ("max", "avg", "min"),
    "require": ("any", "both"),
}


def _invalid_choice(key: str, value) -> str:
    return (f"invalid {key.replace('_', '-')} {value!r} "
            f"(choose from {', '.join(CHOICES[key])})")


class ExitError(Exception):
    """A failure that ends the program with its message and exit ``code``.
    It holds only these, so it survives pickling."""

    code = 3

    def __init__(self, message: str, code: int | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ConfigError(ExitError):
    code = 2


class DataError(ExitError):
    code = 3


class StageError(ExitError):
    """A stage's failure that is neither bad configuration nor bad data;
    ``_stage_error`` words it and picks its code, 3, 4 or 5."""


# the errnos of a write that ran out of a resource, not into bad data
_EXHAUSTED = {errno.ENOSPC: "out of disk space", errno.EDQUOT: "over the disk quota",
              errno.EFBIG: "over the file size limit"}


def _stage_error(stage: str, t, e: Exception) -> StageError:
    """e as the failure of the stage, at step t unless t is None: exit 5
    for memory, disk space, quota or file size, 4 for a broken invariant
    and 3 for anything else, naming the file of a failed file operation."""
    at = "" if t is None else f" at t={t}"
    full = _EXHAUSTED.get(getattr(e, "errno", None))
    why = f"{e.filename}: {_why(e)}" if getattr(e, "filename", None) else e
    if isinstance(e, MemoryError):
        return StageError(f"stage {stage!r}{at} ran out of memory", 5)
    if full:
        return StageError(f"stage {stage!r}{at} ran {full}: {why}", 5)
    code = 4 if isinstance(e, AssertionError) else 3
    return StageError(f"stage {stage!r} failed{at}: {why}", code)


# settings that steer how a run executes, not what it computes; the echo
# leaves them out, so reruns and parallelism degrees stay byte-identical
_EXECUTION = ("out", "dump_labels", "jobs")
_SEMANTIC = tuple(f.name for f in dataclasses.fields(trackgraph.SemanticPredicate))


@dataclasses.dataclass(frozen=True)
class PipelineConfig:
    """The settings of one run, as the flags declare them (a ``--config``
    file is read through the same flags), and the semantic predicate and
    connectivity policy built from them, whose checks are the settings'."""

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
    predicate: trackgraph.SemanticPredicate = dataclasses.field(init=False, repr=False)
    policy: trackgraph.ConnectivityPolicy = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if not self.input:
            raise ConfigError("no input file given")
        aliases = {"min": "minimum", "max": "maximum"}
        object.__setattr__(self, "kind", aliases.get(self.kind, self.kind))
        for key, names in CHOICES.items():
            if getattr(self, key) not in names:
                raise ConfigError(_invalid_choice(key, getattr(self, key)))
        if not 0.0 <= self.persistence_pct <= 100.0:
            raise ConfigError(f"persistence-pct must be in [0, 100], got {self.persistence_pct}")
        if self.d < 0 or not math.isfinite(self.d):
            raise ConfigError(f"d must be a finite non-negative number, got {self.d}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be at least 1, got {self.jobs}")
        try:
            if self.p_min is not None:
                trackgraph.check_p_min(self.p_min)
            predicate = trackgraph.SemanticPredicate(**{k: getattr(self, k) for k in _SEMANTIC})
            policy = trackgraph.ConnectivityPolicy(self.connect == "bidirectional", self.strength)
        except ValueError as e:  # the library names its fields, the CLI its keys
            raise ConfigError(str(e).replace("_", "-")) from e
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "policy", policy)

    def effective_p_min(self, strategy: str | None = None) -> float:
        if self.p_min is not None:
            return self.p_min
        return DEFAULT_P_MIN[strategy or self.strategy]

    def echo(self, strategy: str | None = None) -> dict:
        """Parameter echo for output metadata: every setting but the
        execution ones, a tuple as a list, and of the semantic bounds only
        those that are set."""
        strategy = strategy or self.strategy
        doc = {}
        for f in dataclasses.fields(self):
            if f.init and f.name not in _EXECUTION + _SEMANTIC:
                v = getattr(self, f.name)
                doc[f.name] = list(v) if isinstance(v, tuple) else v
        doc.update(self.predicate.settings(), strategy=strategy,
                   p_min=self.effective_p_min(strategy))
        return doc


def _stage(name: str, fn, steps=None, jobs: int = 1):
    """Run one named stage: ``fn()``, or ``fn(t)`` for each step t, in
    order, on up to ``jobs`` threads; returns the result or the per-step
    results in step order and logs the stage's wall time.

    An ``ExitError`` passes through, as does a closed pipe; any other
    exception becomes the ``_stage_error`` naming the stage and, per step,
    the step.
    """
    def call(t=None):
        try:
            return fn() if steps is None else fn(t)
        except (ExitError, BrokenPipeError):
            raise
        except Exception as e:
            raise _stage_error(name, t, e) from e

    t0 = time.perf_counter()
    if steps is None:
        out = call()
    elif jobs <= 1:
        out = [call(t) for t in steps]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            out = list(pool.map(call, steps))
    log.info("[%s] %.3fs", name, time.perf_counter() - t0)
    return out


def _why(e: OSError | UnicodeDecodeError) -> str:
    """What an OS or decoding error says about its file, without the path."""
    if isinstance(e, UnicodeDecodeError):
        return f"not UTF-8 text ({e.reason} at byte {e.start})"
    return e.strerror or str(e)


def _path_error(path, e: OSError | UnicodeDecodeError) -> DataError:
    return DataError(f"{path}: {_why(e)}")


def _output_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataError(f"{path}: cannot create the output directory: {_why(e)}") from e
    return out


def _load_input(config: PipelineConfig) -> ScalarFieldSeries:
    parts = []
    for p in config.input:
        try:
            parts.append(field.load_series(p, config.format))
        except SeriesFormatError as e:
            off = "" if e.offset is None else f" (byte offset {e.offset})"
            raise DataError(f"{p}: {e}{off}") from e
        except (OSError, UnicodeDecodeError) as e:
            raise _path_error(p, e) from e
    if len(parts) == 1:
        return parts[0]
    try:
        return field.stack_series(parts)
    except ValueError as e:
        raise DataError(str(e)) from e


def _label_all(steps: list, domain: GridDomain, config: PipelineConfig) -> list[ManifoldLabeling]:
    """Label and simplify each step, dropping its values once they are."""
    value_range = None
    if config.global_range:
        # in float64, as ``simplify`` takes a step's own range
        value_range = max(float(s.max()) for s in steps) - min(float(s.min()) for s in steps)

    def one(t: int) -> ManifoldLabeling:
        lab = label_manifolds(steps[t], domain, config.kind)
        lab = simplify(lab, steps[t], config.persistence_pct, value_range)
        steps[t] = None  # no later stage reads the values
        return lab

    return _stage("labeling", one, range(len(steps)), config.jobs)


def _pair_matrices(labs: list[ManifoldLabeling], config: PipelineConfig, strategy: str):
    """Per consecutive pair: the (forward, backward) overlap matrices, or
    the binary correspondence matrices, which have no overlap."""
    lattice = config.distance_units == "lattice"

    def one(t: int):
        if strategy == "manifold-overlap":
            return correspond.manifold_overlap(labs[t], labs[t + 1])
        if strategy in ("sampling-euclidean", "sampling-combinatorial"):
            mode = strategy.split("-", 1)[1]
            return (correspond.sampling_overlap(labs[t], labs[t + 1], mode, config.d,
                                                "forward", lattice),
                    correspond.sampling_overlap(labs[t + 1], labs[t], mode, config.d,
                                                "backward", lattice))
        return (correspond.binary_correspondence(labs[t], labs[t + 1], "forward"),
                correspond.binary_correspondence(labs[t + 1], labs[t], "backward"))

    return _stage("correspondence", one, range(len(labs) - 1), config.jobs)


def _feature_sets_for(labs: list[ManifoldLabeling], path: str) -> list[features.FeatureSet]:
    """Feature sets per step; steps missing from the file get singletons.
    A step may be listed once, only if the series has it, and only with
    extremum ids that the step has."""
    try:
        sets = features.load_features(path)
    except (OSError, UnicodeDecodeError) as e:
        raise _path_error(path, e) from e
    except ValueError as e:
        raise DataError(f"{path}: bad feature file: {e}") from e
    loaded = {}
    for fs in sets:
        if not 0 <= fs.t < len(labs):
            raise DataError(f"{path}: step {fs.t} is outside the series (steps 0..{len(labs) - 1})")
        if fs.t in loaded:
            raise DataError(f"{path}: step {fs.t} is listed twice")
        try:
            fs.membership(labs[fs.t].n_extrema)
        except ValueError as e:
            raise DataError(f"{path}: step {fs.t}: {e}") from e
        loaded[fs.t] = fs
    out = []
    for t, lab in enumerate(labs):
        fs = loaded.get(t)
        if fs is None:
            fs = features.singleton_features(t, lab.n_extrema)
        out.append(fs)
    return out


def _feature_pair_matrices(fsets, pairs, config: PipelineConfig):
    """Per consecutive pair: the (forward, backward) feature overlaps."""
    def one(t: int):
        forward, backward = pairs[t]
        return (features.feature_overlap(fsets[t], fsets[t + 1], forward),
                features.feature_overlap(fsets[t + 1], fsets[t], backward))

    return _stage("feature-lift", one, range(len(pairs)), config.jobs)


def _node_layers(labs, fsets) -> list[trackgraph.NodeColumns]:
    """Node columns per step: the extrema, or each feature shown at its
    representative extremum when feature sets are given."""
    if fsets is None:
        return trackgraph.extremum_layers(labs)
    layers = []
    for t, (fs, lab) in enumerate(zip(fsets, labs)):
        ex = lab.extrema.take(features.representative_extremum(fs, lab))
        layers.append(trackgraph.NodeColumns.for_step(t, "feature", ex.vertex, ex.value,
                                                      lab.domain.positions(ex.vertex)))
    return layers


def _build_graph(layers, domain: GridDomain, pairs, config: PipelineConfig, strategy: str):
    """The filtered graph over the nodes that ``layers()`` gives;
    ``pairs`` are the matrices of those nodes."""
    g = _stage("graph-assembly", lambda: trackgraph.assemble(
        layers(), [f for f, _ in pairs], [b for _, b in pairs], config.policy, strategy))
    p_min = config.effective_p_min(strategy)
    g = _stage("probability-filter",
               lambda: trackgraph.threshold_filter(g, p_min, config.require))
    if config.predicate.settings():
        g = _stage("semantic-filter",
                   lambda: trackgraph.semantic_filter(g, domain, config.predicate))
    g.meta["config"] = config.echo(strategy)  # the filter gave g a meta dict of its own
    _stage("tracks", lambda: g.tracks)  # derived once, for this graph only
    return g


def _pipeline(config: PipelineConfig, out: Path, strategies):
    """Load, label, dump the labels and load the features once, then yield
    each strategy's (name, matrices, feature matrices or None, graph)."""
    series = _stage("load", lambda: _load_input(config))
    domain, steps = series.domain, list(series.steps)
    del series  # each step is held once, by steps, until it is labeled
    labs = _label_all(steps, domain, config)
    if config.dump_labels:
        _stage("dump-labels", lambda t: field.save_labels(labs[t].label, domain,
                                                          out / f"labels_{t:04d}.xtrk"),
               range(len(labs)))
    fsets = None
    if config.features is not None:
        fsets = _stage("feature-load", lambda: _feature_sets_for(labs, config.features))
    layers = functools.cache(lambda: _node_layers(labs, fsets))  # built by the first assembly
    for k, strategy in enumerate(strategies):
        pairs = _pair_matrices(labs, config, strategy)
        fpairs = None if fsets is None else _feature_pair_matrices(fsets, pairs, config)
        g = _build_graph(layers, domain, pairs if fpairs is None else fpairs, config, strategy)
        if k == len(strategies) - 1:
            layers.cache_clear()  # the last graph holds its own copy of the nodes
        yield strategy, pairs, fpairs, g
        del pairs, fpairs, g  # before the next strategy's are built


def run(config: PipelineConfig) -> int:
    """Full pipeline; writes artifacts into the output directory."""
    out = _output_dir(config.out)
    for _, pairs, fpairs, g in _pipeline(config, out, [config.strategy]):
        _stage("export", lambda: _write_outputs(out, pairs, fpairs, g))
    return 0


# A writer does not pay below this many records: noise3d-maxima's export
# of about 11k records takes 6 ms in-process and 10-11 ms with one, as the
# fork, its pipes and the reaping take 4-6 ms with 50 MiB resident, while
# noise2d-manifold's 358k records take 99 ms with one against 136 ms
# without (best of 7 and 9 runs, 2-core x86-64 Linux, Python 3.11)
_FORK_RECORDS = 50_000


def _export_jobs(out: Path, pairs, fpairs, g) -> list:
    """The export's write jobs in write order, each ``(records, paths,
    write)``: one pass per matrix, the feature matrices' passes, then
    graph.json and graph.dot."""
    jobs = []
    for prefix, ps in (("", pairs), ("feature_", fpairs or ())):
        for t, pair in enumerate(ps):
            for m, s in zip(pair, (t, t + 1)):
                name = f"{m.direction}_{s:04d}.json"
                # an overlap and its normalized twin are written in one pass
                paths = ((out / f"{prefix}overlap_{name}",) if m.kind == "overlap" else ()) \
                    + (out / f"{prefix}correspondence_{name}",)
                jobs.append((m.rows + m.counts.size, paths,
                             functools.partial(correspond.save_matrix, m, s, *paths)))
    size = len(g.node_columns) + len(g.edge_columns)
    for fmt in ("json", "dot"):
        path = out / f"graph.{fmt}"
        jobs.append((size, (path,), functools.partial(trackgraph.save_graph, g, fmt, path)))
    return jobs


def _drain(jobs, indices) -> tuple:
    """Run the job of each index in turn, except those after this process's
    first failure in write order; returns the earliest failure as (index,
    exception), or None, and the indices of the jobs that finished. The
    exception is a closed pipe or the ``_stage_error`` of stage 'export',
    worded in the process where it happened."""
    failed, done = None, []
    for k in indices:
        if failed is not None and k > failed[0]:
            continue
        try:
            jobs[k][2]()
        except BrokenPipeError as e:
            failed = (k, e)
        except Exception as e:
            failed = (k, _stage_error("export", None, e))
        else:
            done.append(k)
    return failed, done


def _start_writer(order):
    """``(os.fork(), queue, report_r, report_w)``: a forked writer, the read
    end of a pipe that holds the indices ``order`` (4 bytes each) and
    nothing more, and a pipe for the writer's report; or None, with every
    pipe closed, where the queue does not fit a pipe or a pipe or the fork
    fails."""
    fds = []
    try:
        fds += os.pipe()
        data = np.asarray(order, "<u4").tobytes()
        os.set_blocking(fds[1], False)
        if os.write(fds[1], data) == len(data):
            os.close(fds.pop())
            fds += os.pipe()
            return (os.fork(), *fds)
    except OSError:  # a full pipe, no file descriptor or no process left
        pass
    for fd in fds:
        os.close(fd)
    return None


def _take(queue: int, taken: list):
    """Indices from the queue until it is empty, each also appended to
    taken; whole ones, as each was written whole and a pipe read is atomic."""
    while chunk := os.read(queue, 4):
        taken.append(k := int.from_bytes(chunk, "little"))
        yield k


def _drain_with_writer(jobs) -> tuple | None:
    """``_drain`` of the jobs, largest first from one queue, by this
    process and a forked writer at once; returns the failure earliest in
    write order of either and the jobs that either finished, or None where
    no writer could start. The writer reports its ``_drain`` through a
    second pipe, a failure as its index and the exception, pickled, and
    ends with ``os._exit``; it is reaped on every path. A writer that ends
    unreported fails the earliest job in write order that it took, and
    every job it took counts as finished, as any may be cut off."""
    started = _start_writer(sorted(range(len(jobs)), key=lambda k: -jobs[k][0]))
    if started is None:
        return None
    pid, queue, report_r, report_w = started
    if pid == 0:
        code = 1
        try:
            os.close(report_r)
            failed, done = _drain(jobs, _take(queue, []))
            with os.fdopen(report_w, "wb") as fh:
                pickle.dump((failed, done), fh)
            code = 0
        finally:
            os._exit(code)
    os.close(report_w)
    taken = []
    try:
        with os.fdopen(report_r, "rb") as fh:
            failed, done = _drain(jobs, _take(queue, taken))
            report = fh.read()  # until the writer ends
    finally:
        os.close(queue)
        status = os.waitpid(pid, 0)[1]
    try:
        theirs, their_done = pickle.loads(report)
    except Exception:  # no report, or a cut-off one
        their_done, theirs = sorted(set(range(len(jobs))) - set(taken)), None
        if their_done:
            code = os.waitstatus_to_exitcode(status)
            theirs = (their_done[0], _stage_error(
                "export", None, RuntimeError(f"the writer process ended with status {code}")))
    failures = [f for f in (failed, theirs) if f is not None]
    return min(failures, key=lambda f: f[0], default=None), done + their_done


def _may_fork(records: int) -> bool:
    """Whether an export of this many records may fork a writer: one that
    is large enough, where os.fork exists, no other thread runs and this
    process may use a second CPU."""
    return (records >= _FORK_RECORDS and hasattr(os, "fork") and threading.active_count() == 1
            and len(getattr(os, "sched_getaffinity", lambda _: ())(0)) > 1)


def _write_outputs(out: Path, pairs, fpairs, g) -> None:
    """Write the export's jobs in write order in this process or, where
    ``_may_fork`` and a writer starts, largest first in it and a forked
    writer together. Either way the run ends as a write in write order
    would: the failure earliest in write order is raised, and the regular
    files of every later job that finished are discarded."""
    jobs = _export_jobs(out, pairs, fpairs, g)
    ended = _drain_with_writer(jobs) if _may_fork(sum(r for r, _, _ in jobs)) else None
    failed, done = ended if ended is not None else _drain(jobs, range(len(jobs)))
    if failed is None:
        return
    k, e = failed
    for j in done:
        if j >= k:
            for p in jobs[j][1]:
                field.discard(p)
    raise e


def _write_report(out: Path, strategies, binary, per_strategy) -> None:
    """compare.json and compare.txt from binary's (matrix, step) list, in
    (direction, step) order, and each strategy's probabilities at the
    entries of each of those matrices (NaN where it has none) and report entry."""
    def cat(parts, dtype=np.int64):
        return np.concatenate([np.empty(0, dtype), *parts])

    names = sorted(per_strategy)
    sizes = [b.keys.size for b, _ in binary]
    columns = [(np.repeat([b.direction for b, _ in binary], sizes), json.dumps),
               cat(b.i for b, _ in binary), cat(b.j for b, _ in binary)]
    summary = {s: dict(per_strategy[s][1]) for s in names}
    for s, entry in summary.items():
        p = cat(per_strategy[s][0], np.float64)
        hit = p[~np.isnan(p)]  # in key order, so np.mean sums as it always has
        if "binary" in per_strategy:
            entry["binary_retention_pct"] = round(100.0 * hit.size / p.size, 3) if p.size else 100.0
            entry["mean_prob_on_binary_pairs"] = round(float(np.mean(hit)), 6) if hit.size else None
        columns.append((np.where(np.isnan(p), 0.0, p), lambda x: float.__repr__(round(x, 6))))
    columns.append(np.repeat([t for _, t in binary], sizes))
    pair_tmpl = ('{\n      "direction": %s,\n      "i": %d,\n      "j": %d,\n      "probs": {'
                 + ",".join(f"\n        {json.dumps(s)}: %s" for s in names)
                 + '\n      },\n      "t": %d\n    }')
    with field.open_output(out / "compare.json") as fh:
        fh.write(b'{\n  "binary_pairs": ')
        fh.writelines(correspond._json_list(pair_tmpl, columns, sum(sizes)))
        doc = json.dumps(summary, sort_keys=True, indent=2).replace("\n", "\n  ")
        fh.write(f',\n  "strategies": {doc}\n}}\n'.encode())

    lines = [f"{'strategy':24} {'entries':>8} {'edges':>6} {'tracks':>7} {'retention':>10} {'mean-p':>8}"]
    for strategy in strategies:
        e = summary[strategy]
        ret = e.get("binary_retention_pct")
        mp = e.get("mean_prob_on_binary_pairs")
        lines.append(
            f"{strategy:24} {e['correspondence_entries']:>8} {e['graph_edges']:>6} "
            f"{e['tracks']:>7} {'' if ret is None else f'{ret:9.1f}%':>10} "
            f"{'' if mp is None else f'{mp:8.4f}':>8}"
        )
    text = "\n".join(lines) + "\n"
    with field.open_output(out / "compare.txt") as fh:
        fh.write(text.encode("utf-8"))
    sys.stdout.write(text)


def compare(config: PipelineConfig, strategies) -> int:
    """Run several strategies on shared labelings and node layers; write a report."""
    out = _output_dir(config.out)
    binary, per_strategy = [], {}
    # binary first: each other strategy's matrices and graph go once looked up
    order = sorted(strategies, key=lambda s: s != "binary")
    for strategy, pairs, fpairs, g in _pipeline(config, out, order):
        # backward before forward, the order of their (direction, step) keys
        mats = [(b, t + 1) for t, (_, b) in enumerate(pairs)] + [(f, t) for t, (f, _) in enumerate(pairs)]
        if strategy == "binary":
            binary = mats
        per_strategy[strategy] = _stage("report", lambda: (
            [m.probs_at(b.keys) for (m, _), (b, _) in zip(mats, binary)], {
            "correspondence_entries": sum(m.keys.size for m, _ in mats),
            "graph_edges": len(g.edge_columns),
            "tracks": np.unique(g.tracks, return_counts=True)[1].size,  # no numpy.ma import
        }))
        del pairs, fpairs, g, mats
    _stage("report", lambda: _write_report(out, strategies, binary, per_strategy))
    return 0


def cmd_synth(args) -> int:
    if args.preset is None and args.script is None:
        raise ConfigError("synth needs --preset or --script")
    if args.preset is not None and args.script is not None:
        raise ConfigError("give either --preset or --script, not both")
    if args.preset is not None:  # argparse admits "ridge" alone
        script = synth.ridge_script()
    else:
        try:
            script = synth.load_script(args.script)
        except (OSError, UnicodeDecodeError) as e:
            raise _path_error(args.script, e) from e
        except ValueError as e:
            raise DataError(f"{args.script}: bad script: {e}") from e
    # an overflow shows as a non-finite value, which the series refuses
    with np.errstate(over="ignore"):
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
        # decoded once, one top-level value at a time: a graph's lists
        # become columns as they are decoded, and the text is dropped then
        doc = trackgraph.read_document(Path(args.path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as e:
        raise _path_error(args.path, e) from e
    except ValueError as e:  # also an integer literal past Python's digit limit
        raise DataError(f"{args.path}: unreadable JSON: {e}") from e
    w = sys.stdout.write
    try:
        if isinstance(doc, dict) and "entries" in doc and "direction" in doc:
            m, t = correspond.doc_to_matrix(doc)
            w(f"{m.kind} matrix, {m.strategy}, {m.direction} at t={t}\n")
            w(f"shape {m.rows} x {m.cols}, {m.counts.size} stored entries\n")
            denom = m.row_denominators.tolist()
            head = (*m.unkey(m.keys[:20]), m.counts[:20])
            for i, j, c in zip(*(a.tolist() for a in head)):
                w(f"  ({i} -> {j}): {c}/{denom[i]} = {c / denom[i]:.4f}\n")
            if m.counts.size > 20:
                w(f"  ... {m.counts.size - 20} more\n")
            return 0
        if isinstance(doc, dict) and "nodes" in doc and "edges" in doc:
            g = trackgraph.doc_to_graph(doc)
            n, e = g.node_columns, g.edge_columns
            w(f"tracking graph: {g.n_layers} layers, {len(n)} nodes, {len(e)} edges, "
              f"{np.unique(g.tracks, return_counts=True)[1].size} tracks\n")
            if g.meta.get("strategy"):
                w(f"strategy {g.meta['strategy']}, policy {g.meta.get('policy')}\n")
            top = np.argsort(-e.strength, kind="stable")[:10]
            for t, i, j, s in zip(*(a[top].tolist() for a in (*g.edge_ends(), e.strength))):
                w(f"  t{t} {i} -> {j}  strength {s:.4f}\n")
            return 0
    except ValueError as e:
        what = "matrix" if "entries" in doc else "graph"
        raise DataError(f"{args.path}: malformed {what} document: {e!r}") from e
    raise DataError(f"{args.path}: neither a matrix nor a graph document")


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _point_flag(s: str) -> tuple[float, ...]:
    # argparse prints an ArgumentTypeError's message as the usage error
    # (exit 2); for a ValueError it would print this function's name instead
    try:
        return tuple(float(x) for x in s.split(","))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"not a comma-separated point: {s!r}") from e


def _config_value(action: argparse.Action, s: str):
    """A config-file value read as ``action``'s flag reads it: a switch's
    as a boolean, a list's split at commas, and checked against the
    flag's choices."""
    if action.nargs == 0:
        return _parse_bool(s)
    parse = action.type or str
    if action.nargs == "+":
        return tuple(parse(x) for x in s.split(","))
    v = parse(s)
    if action.choices is not None and v not in action.choices:
        raise ValueError(_invalid_choice(action.dest, v))
    return v


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: {_why(e)}") from e
    settings, out = _settings(), {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in settings:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _config_value(settings[key], value.strip())
        except (ValueError, argparse.ArgumentTypeError) as e:
            raise ConfigError(f"{path}:{lineno}: {e}") from e
    return out


def _add_pipeline_flags(p: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """Add the run settings' flags to p; returns their actions by key."""
    p.add_argument("--verbose", action="store_true", help="log stage timings")
    p.add_argument("--config", help="flat key = value file; explicit flags win")
    settings = [
        p.add_argument("--input", nargs="+", help="series file(s); csv mode takes one per step"),
        p.add_argument("--format", choices=CHOICES["format"]),
        p.add_argument("--kind", choices=CHOICES["kind"]),
        p.add_argument("--persistence-pct", type=float, dest="persistence_pct",
                       help="persistence threshold, percent of range (default 0.5)"),
        p.add_argument("--global-range", action="store_const", const=True, dest="global_range",
                       help="use the series-wide range for the threshold"),
        p.add_argument("--strategy", choices=CHOICES["strategy"]),
        p.add_argument("--d", type=float, help="sampling distance (default 2)"),
        p.add_argument("--distance-units", choices=CHOICES["distance_units"],
                       dest="distance_units"),
        p.add_argument("--connect", choices=CHOICES["connect"]),
        p.add_argument("--strength", choices=CHOICES["strength"]),
        p.add_argument("--p-min", type=float, dest="p_min",
                       help="probability threshold (default 0.25 manifold, 0.1 sampling)"),
        p.add_argument("--require", choices=CHOICES["require"]),
        p.add_argument("--value-min", type=float, dest="value_min"),
        p.add_argument("--value-max", type=float, dest="value_max"),
        p.add_argument("--box-min", type=_point_flag, dest="box_min"),
        p.add_argument("--box-max", type=_point_flag, dest="box_max"),
        p.add_argument("--max-jump", type=float, dest="max_jump"),
        p.add_argument("--features", help="feature-set JSON side file"),
        p.add_argument("--out", help="output directory (default out)"),
        p.add_argument("--dump-labels", action="store_const", const=True, dest="dump_labels"),
        p.add_argument("--jobs", type=int),
    ]
    return {a.dest: a for a in settings}


@functools.cache
def _settings() -> dict[str, argparse.Action]:
    """The actions of the run settings' flags by key, which also read the
    values of a ``--config`` file."""
    return _add_pipeline_flags(argparse.ArgumentParser())


def _config_from_args(args) -> PipelineConfig:
    base = _read_config_file(args.config) if args.config else {}
    for key in _settings():
        v = getattr(args, key)
        if v is not None:
            base[key] = v
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


def _command(args) -> int:
    if args.command == "run":
        return run(_config_from_args(args))
    if args.command == "compare":
        strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
        for k, s in enumerate(strategies):
            if s not in STRATEGIES:
                raise ConfigError(f"unknown strategy {s!r}")
            if s in strategies[:k]:
                raise ConfigError(f"strategy {s!r} is listed twice in --strategies")
        if not strategies:
            raise ConfigError("empty strategy list")
        return compare(_config_from_args(args), strategies)
    if args.command == "synth":
        return _stage("synth", lambda: cmd_synth(args))
    return _stage("inspect", lambda: cmd_inspect(args))


def _closed_pipe() -> int:
    """End quietly with 141, the status a shell reports for a writer that
    SIGPIPE ends. If stdout is the closed pipe, what it still buffers goes
    to the null device, so that the interpreter's flush at exit does not
    fail on it as well."""
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    return 141


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(message)s",
    )
    try:
        code = _command(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        return _closed_pipe()
    except ExitError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except AssertionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

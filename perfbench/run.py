"""End-to-end benchmark of ``extrack run`` on locally generated noisy fields.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are listed in workloads.py; design notes and the layer predictions
are in DESIGN.md. Run from any directory of a source checkout: the program
is imported from ``src/`` beside this directory, and all scratch files go to
``.perfbench-work/`` at the checkout root and are deleted on exit.

Each run generates the inputs from the seed (timed several times: setup_s),
then repeats ``extrack run`` in a fresh child process per repetition, one
at a time, for at least --seconds. Every repetition writes into a new empty
output directory, whose artifacts are digested, checked and deleted.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced repetitions and prints the per-layer
metrics. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SPEC = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 5
MIN_REPS = 3               # untraced repetitions; a traced run makes this many pairs
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 40, 1.0
REP_TIMEOUT_S = 50.0       # a repetition running longer counts as failed
NO_NEW_REP_AFTER_S = 110.0  # keeps a whole run under 180 s


def log(msg: str) -> None:
    print(msg, flush=True)


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def set_up(w, seed: int, work: Path):
    """Generate the inputs repeatedly; return the kept input directory, its
    digest and the setup times. The same seed must give the same bytes."""
    from checks import dir_digest
    from workloads import write_inputs

    times, digests = [], set()
    while len(times) < SETUP_MIN or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX):
        d = work / f"input-{len(times)}"
        d.mkdir()
        t0 = time.perf_counter()
        write_inputs(w, seed, d)
        times.append(time.perf_counter() - t0)
        digests.add(dir_digest(d))
        if len(times) > 1:
            shutil.rmtree(d)
    if len(digests) != 1:
        raise RuntimeError("one seed generated different inputs")
    return work / "input-0", digests.pop(), times


def repetition(w, input_dir: Path, rep_dir: Path, traced: bool) -> dict:
    """One ``extrack run`` in a fresh child; its artifacts are digested and
    deleted. Returns the child's measurements or a failure reason."""
    from checks import dir_digest

    rep_dir.mkdir()
    out = rep_dir / "out"
    files = [str(rep_dir / "result.json")] + ([str(rep_dir / "trace.json")] if traced else [])
    cmd = [sys.executable, str(HERE / "child.py"), *files, "--", *w.argv(), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    rec = {"traced": traced}
    try:
        proc = subprocess.run(cmd, cwd=input_dir, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {**rec, "failure": f"timed out after {REP_TIMEOUT_S:.0f} s"}
    if proc.returncode != 0:
        how = f"signal {-proc.returncode}" if proc.returncode < 0 else f"exit {proc.returncode}"
        return {**rec, "failure": f"{how}: {proc.stderr.strip()[-500:]}"}
    rec.update(json.loads(Path(files[0]).read_text(encoding="utf-8")))
    if traced:
        from tracer import summarize

        rec["trace"] = summarize(json.loads(Path(files[1]).read_text(encoding="utf-8")))
    rec["digest"] = dir_digest(out)
    rec["out"] = out
    return rec


def layer_metrics(rec: dict, untraced_run_s: float) -> dict:
    """Per-layer metrics of one traced repetition."""
    tr = rec["trace"]
    s = lambda group: tr["self_s"].get(group, 0.0)  # noqa: E731
    c = lambda key: tr["counts"].get(key, 0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    mib = 1.0 / 2**20
    raw, kept = c("morse.label.extrema_raw"), c("morse.simplify.extrema_kept")
    final = "trackgraph.semantic" if tr["calls"].get("trackgraph.semantic") \
        else "trackgraph.threshold"
    assembled, kept_edges = c("trackgraph.assemble.edges"), c(f"{final}.edges")
    return {
        "trace.run_s": rec["run_s"],
        "field.load_s": s("field.load"),
        "field.load_mib": c("field.load.bytes") * mib,
        "morse.label_s": s("morse.label"),
        "morse.simplify_s": s("morse.simplify"),
        "morse.extrema_raw": raw,
        "morse.extrema_kept": kept,
        "morse.kept_ratio": ratio(kept, raw),
        "correspond.overlap_s": s("correspond.overlap"),
        "correspond.normalize_s": s("correspond.normalize"),
        "correspond.save_s": s("correspond.save"),
        "correspond.nnz": c("correspond.overlap.nnz"),
        "correspond.save_mib": c("correspond.save.bytes") * mib,
        "features.load_s": s("features.load"),
        "features.lift_s": s("features.lift"),
        "features.represent_s": s("features.represent"),
        "features.save_s": s("features.save"),
        "features.nnz": c("features.lift.nnz"),
        "features.save_mib": c("features.save.bytes") * mib,
        "trackgraph.layers_s": s("trackgraph.layers"),
        "trackgraph.assemble_s": s("trackgraph.assemble"),
        "trackgraph.threshold_s": s("trackgraph.threshold"),
        "trackgraph.semantic_s": s("trackgraph.semantic"),
        "trackgraph.export_s": s("trackgraph.export"),
        "trackgraph.nodes": c("trackgraph.assemble.nodes"),
        "trackgraph.edges_assembled": assembled,
        "trackgraph.edges_kept": kept_edges,
        "trackgraph.edge_keep_ratio": ratio(kept_edges, assembled),
        "trackgraph.tracks": c(f"{final}.tracks"),
        "trackgraph.export_mib": c("trackgraph.export.bytes") * mib,
        "cli.self_s": tr["wall_s"] - tr["covered_s"],
        "trace.coverage": ratio(tr["covered_s"], tr["wall_s"]),
        "trace.overhead_s": rec["run_s"] - untraced_run_s,
    }


def measure(w, seed: int, seconds: float, trace: bool, expected: dict | None,
            min_reps: int = MIN_REPS) -> dict:
    """Set up, repeat and check one workload; returns the raw record."""
    from checks import invariants

    begun = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-{seed}-", dir=WORK))
    try:
        input_dir, input_digest, setup_times = set_up(w, seed, work)
        notes = []
        want = None
        if expected is None:
            notes.append(f"no recorded digests for seed {seed}; checking repeatability only")
        elif expected["input"] != input_digest:
            notes.append("input differs from the recorded one (another platform's floating "
                         "point?); checking repeatability only")
        else:
            want = expected["artifacts"]

        reps, checked = [], {}
        t0 = time.perf_counter()
        while len(reps) < (2 * min_reps if trace else min_reps) or \
                time.perf_counter() - t0 < seconds:
            if time.perf_counter() - begun > NO_NEW_REP_AFTER_S:
                notes.append("stopped early to stay within the run time limit")
                break
            rep = repetition(w, input_dir, work / f"rep-{len(reps)}",
                             traced=trace and len(reps) % 2 == 1)
            if "failure" not in rep:
                digest = rep["digest"]
                if digest not in checked:
                    checked[digest] = invariants(rep["out"])
                first = next((r["digest"] for r in reps if "failure" not in r), digest)
                if checked[digest]:
                    rep["failure"] = "; ".join(checked[digest])
                elif want is not None and digest != want:
                    rep["failure"] = f"artifact digest {digest[:12]} != recorded {want[:12]}"
                elif digest != first:
                    rep["failure"] = "artifacts differ from the first repetition's"
            shutil.rmtree(work / f"rep-{len(reps)}")
            rep.pop("out", None)
            reps.append(rep)
        return {"setup_s": setup_times, "input_digest": input_digest, "reps": reps,
                "notes": notes}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def report(raw: dict, trace: bool, spec: dict) -> dict:
    """Print the human-readable summary; return the JSON result line."""
    reps = raw["reps"]
    ok = [r for r in reps if "failure" not in r]
    failed = [r for r in reps if "failure" in r]
    for note in raw["notes"]:
        log(f"note: {note}")
    for i, r in enumerate(failed):
        log(f"FAILED repetition {i}: {r['failure']}")
    log(f"repetitions: {len(reps)} attempted, {len(failed)} failed "
        f"(failed_frac {len(failed) / max(len(reps), 1):.3f})")
    if ok:
        log(f"input sha256 {raw['input_digest']}  artifacts sha256 {ok[0]['digest']}")

    samples: dict[str, list[float]] = {"setup_s": raw["setup_s"]}
    untraced = [r for r in ok if not r["traced"]]
    for r in untraced:
        samples.setdefault("run_s", []).append(r["run_s"])
        samples.setdefault("peak_rss_mib", []).append(r["peak_rss_mib"])
    if trace and untraced:
        base = statistics.median(r["run_s"] for r in untraced)
        for r in ok:
            if r["traced"]:
                for k, v in layer_metrics(r, base).items():
                    samples.setdefault(k, []).append(v)
    section = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, xs in samples.items():
        q1, med, q3 = quartiles(xs)
        log(f"{name:28s} median {med:12.6g} {units.get(name, ''):6s} "
            f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(xs)}")
    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
               for m in section if m["name"] in samples}
    return {"correct": bool(ok) and not failed, "attempted": len(reps),
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "extrack" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'extrack'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.is_file() else {}
    expected = recorded.get(w.name, {}).get(str(args.seed))
    log(f"workload {w.name}, seed {args.seed}: {' '.join(['extrack', *w.argv()])}")
    raw = measure(w, args.seed, args.seconds, bool(args.trace), expected)
    print(json.dumps(report(raw, bool(args.trace), spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark harness, in seconds.

    python3 perfbench/selftest.py

Runs every workload at a tiny size through the same harness, untraced and
traced, and fails unless each run is correct, every metric of
BENCHMARK.json is reported with its unit, and each layer the workload should
reach recorded at least one span. It also checks that the tracer refuses to
install when a public function it wraps has gone, so a renamed function
fails the benchmark instead of reporting 0 s.
"""

from __future__ import annotations

import json
import sys

import run

TINY = {2: ((24, 24), 3), 3: ((12, 12, 12), 3)}


def check_workload(w, spec: dict) -> list[str]:
    problems = []
    raw = run.measure(w, seed=1, seconds=0.0, trace=True, expected=None, min_reps=1)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.report(raw, trace, spec)
        if not result["correct"] or result["failed"]:
            problems.append(f"{w.name}: trace={int(trace)} run not correct")
        for m in spec[section]:
            got = result["metrics"].get(m["name"])
            if got is None or got.get("unit") != m["unit"]:
                problems.append(f"{w.name}: metric {m['name']} missing or without unit")
    traced = [r for r in raw["reps"] if r.get("traced") and "trace" in r]
    calls = traced[0]["trace"]["calls"] if traced else {}
    for layer in w.layers:
        if not any(g.startswith(layer + ".") for g in calls):
            problems.append(f"{w.name}: no span recorded in layer {layer}")
    return problems


def check_rename_fails() -> list[str]:
    import tracer

    tracer.TARGETS["morse"]["no_such_function"] = ("label", None)
    try:
        tracer.Tracer().install()
    except AttributeError:
        return []
    finally:
        del tracer.TARGETS["morse"]["no_such_function"]
    return ["tracer installed although a wrapped function is missing"]


def main() -> int:
    if not (run.SRC / "extrack" / "cli.py").is_file():
        print(f"error: no program source at {run.SRC / 'extrack'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("error: BENCHMARK.json and workloads.py list different workloads", file=sys.stderr)
        return 1
    problems = []
    for w in WORKLOADS.values():
        problems += check_workload(w.scaled(*TINY[len(w.dims)]), spec)
    problems += check_rename_fails()
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

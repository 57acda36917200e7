"""Outside-in tracer: spans around the public functions ``extrack.cli`` calls.

Nothing inside the program changes. ``install`` replaces each listed
module function with a wrapper that records a span (name, group, start,
end, parent span, thread) and the counts read from the function's arguments
and return value. Each thread keeps its own span stack, so the worker
threads of ``--jobs`` parent their spans correctly. Spans stay in memory
until ``dump`` writes them out.

A listed function that no longer exists raises at install time, so a
renamed public function fails the benchmark instead of reading as 0 s.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from pathlib import Path


def _nnz(m) -> int:
    return sum(x.counts.size for x in m) if isinstance(m, tuple) else m.counts.size


def _graph(g) -> dict:
    return {"nodes": len(g.nodes), "edges": len(g.edges),
            "tracks": len({n.track for n in g.nodes})}


def _save_group(args) -> str:
    # cli writes the feature-level matrices (feature_*.json) through
    # correspond.save_matrix as well; they belong to the features layer
    return "features.save" if Path(args[2]).name.startswith("feature_") else "correspond.save"


# module -> function -> (span group, or group(args) -> full group name;
#                        counts(result, args) -> dict)
TARGETS = {
    "field": {
        "load_series": ("load", lambda r, a: {"bytes": sum(s.nbytes for s in r.steps)}),
        "stack_series": ("load", None),
    },
    "morse": {
        "label_manifolds": ("label", lambda r, a: {"extrema_raw": r.n_extrema}),
        "simplify": ("simplify", lambda r, a: {"extrema_kept": r.n_extrema}),
    },
    "correspond": {
        "manifold_overlap": ("overlap", lambda r, a: {"nnz": _nnz(r)}),
        "sampling_overlap": ("overlap", lambda r, a: {"nnz": _nnz(r)}),
        "binary_correspondence": ("overlap", lambda r, a: {"nnz": _nnz(r)}),
        "normalize": ("normalize", None),
        "save_matrix": (_save_group, lambda r, a: {"bytes": os.path.getsize(a[2])}),
    },
    "features": {
        "load_features": ("load", None),
        "singleton_features": ("load", None),
        "feature_overlap": ("lift", lambda r, a: {"nnz": _nnz(r)}),
        "feature_correspondence": ("lift", None),
        "representative_extremum": ("represent", None),
    },
    "trackgraph": {
        "extremum_layers": ("layers", None),
        "assemble": ("assemble", lambda r, a: _graph(r)),
        "threshold_filter": ("threshold", lambda r, a: _graph(r)),
        "semantic_filter": ("semantic", lambda r, a: _graph(r)),
        "export": ("export", lambda r, a: {"bytes": len(r.encode("utf-8"))}),
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, group: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                stack.pop()
                g = group(args) if callable(group) else group
                span = {"id": sid, "name": name, "group": g, "start": t0, "end": t1,
                        "parent": parent, "thread": threading.get_ident(), "ok": ok}
                # list.append is atomic under the interpreter lock
                self.spans.append(span)
            if counts is not None:
                span["counts"] = counts(out, args)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in its module and wherever ``extrack.cli`` bound
        it by name (``from .morse import label_manifolds, simplify``)."""
        cli = importlib.import_module("extrack.cli")
        for mod_name, fns in TARGETS.items():
            mod = importlib.import_module(f"extrack.{mod_name}")
            for fn_name, (group, counts) in fns.items():
                orig = getattr(mod, fn_name)  # AttributeError if renamed
                if not callable(group):
                    group = f"{mod_name}.{group}"
                wrapper = self.wrap(f"{mod_name}.{fn_name}", group, orig, counts)
                setattr(mod, fn_name, wrapper)
                for attr, value in list(vars(cli).items()):
                    if value is orig:
                        setattr(cli, attr, wrapper)

    def dump(self, path, start: float, end: float) -> None:
        doc = {"start": start, "end": end, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def summarize(doc: dict) -> dict:
    """Per-group self time (summed over threads) and counts, plus how much
    of the traced wall time the spans cover."""
    spans = doc["spans"]
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for s in spans:
        g = s["group"]
        self_s[g] = self_s.get(g, 0.0) + (s["end"] - s["start"]) - child_time.get(s["id"], 0.0)
        calls[g] = calls.get(g, 0) + 1
        for k, v in s.get("counts", {}).items():
            key = f"{g}.{k}"
            counts[key] = counts.get(key, 0) + v

    # union of root-span intervals over all threads
    covered, reach = 0.0, doc["start"]
    for a, b in sorted((s["start"], s["end"]) for s in spans if s["parent"] is None):
        a, b = max(a, reach), min(b, doc["end"])
        if b > a:
            covered += b - a
            reach = b
    wall = doc["end"] - doc["start"]
    return {"wall_s": wall, "covered_s": covered, "self_s": self_s, "calls": calls,
            "counts": counts}

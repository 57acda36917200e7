"""Output checks: artifact digests and cheap invariants of the documents."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dir_digest(directory: Path) -> str:
    """sha256 over the sorted (file name, file sha256) list of a directory."""
    h = hashlib.sha256()
    for p in sorted(directory.iterdir()):
        h.update(f"{p.name}\0{file_digest(p)}\n".encode())
    return h.hexdigest()


def invariants(out: Path) -> list[str]:
    """Problems found in one run's artifacts; empty when all hold.

    Extremum-level correspondence rows sum to 1 within 1e-12; feature-level
    rows sum to at most 1; graph.json survives import + export unchanged.
    """
    from extrack import trackgraph

    problems = []
    for p in sorted(out.glob("*correspondence_*.json")):
        doc = json.loads(p.read_text(encoding="utf-8"))
        sums = [0.0] * doc["rows"]
        denom = doc["denominators"]
        for i, _, c in doc["entries"]:
            sums[i] += c / denom[i]
        if p.name.startswith("feature_"):
            bad = [i for i, s in enumerate(sums) if s > 1.0 + 1e-12]
        else:
            bad = [i for i, s in enumerate(sums) if abs(s - 1.0) > 1e-12]
        if bad:
            problems.append(f"{p.name}: {len(bad)} rows with bad sums, first row {bad[0]}")
    for name in ("graph.json", "graph.dot"):
        if not (out / name).is_file():
            problems.append(f"{name} missing")
    if not problems:
        text = (out / "graph.json").read_text(encoding="utf-8")
        if trackgraph.export(trackgraph.import_graph(text), "json") != text:
            problems.append("graph.json does not round-trip through import_graph + export")
    return problems
